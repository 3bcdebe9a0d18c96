#include "minimpi/window.hpp"

#include "minimpi/universe.hpp"

namespace ompc::mpi {

void WindowRegistry::create(Rank rank, WindowId id, void* base,
                            std::size_t size) {
  auto* b = static_cast<std::byte*>(base);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_pair(rank, id);
  if (windows_.count(key) != 0)
    throw WindowError("window id " + std::to_string(id) +
                      " already registered on rank " + std::to_string(rank));
  // Overlap scan over this rank's windows: a put must name exactly one
  // destination region. Linear in the rank's window count, which tracks
  // its live allocation count — registration is off the message hot path.
  for (auto it = windows_.lower_bound({rank, 0});
       it != windows_.end() && it->first.first == rank; ++it) {
    const Region& r = it->second;
    if (b < r.base + r.size && r.base < b + size)
      throw WindowError("window id " + std::to_string(id) + " on rank " +
                        std::to_string(rank) +
                        " overlaps existing window id " +
                        std::to_string(it->first.second));
  }
  windows_.emplace(key, Region{b, size});
}

void WindowRegistry::destroy(Rank rank, WindowId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (windows_.erase({rank, id}) != 1)
    throw WindowError("destroy of unknown window id " + std::to_string(id) +
                      " on rank " + std::to_string(rank));
}

bool WindowRegistry::fill(Rank rank, WindowId id, std::uint64_t offset,
                          const Payload& payload) const {
  // The copy happens under the registry lock on purpose: handing out a raw
  // pointer would let the owner destroy the window and free the bytes
  // between resolution and the memcpy (a real use-after-free once the
  // worker heap trims blocks after failover). Holding the lock makes
  // destroy() a barrier: after it returns, no landing copy is in flight.
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = windows_.find({rank, id});
  if (it == windows_.end()) return false;
  const Region& r = it->second;
  if (offset > r.size || payload.size() > r.size - offset) return false;
  payload.copy_to(r.base + offset);
  return true;
}

bool WindowRegistry::read(Rank rank, WindowId id, std::uint64_t offset,
                          std::size_t len, Payload* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = windows_.find({rank, id});
  if (it == windows_.end()) return false;
  const Region& r = it->second;
  if (offset > r.size || len > r.size - offset) return false;
  *out = Payload::copy_of(r.base + offset, len);
  return true;
}

std::size_t WindowRegistry::count(Rank rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (auto it = windows_.lower_bound({rank, 0});
       it != windows_.end() && it->first.first == rank; ++it)
    ++n;
  return n;
}

Window& Window::operator=(Window&& other) noexcept {
  if (this != &other) {
    release();
    universe_ = other.universe_;
    rank_ = other.rank_;
    id_ = other.id_;
    size_ = other.size_;
    other.universe_ = nullptr;
  }
  return *this;
}

Window::~Window() { release(); }

void Window::release() {
  if (universe_ == nullptr) return;
  universe_->windows().destroy(rank_, id_);
  universe_ = nullptr;
}

}  // namespace ompc::mpi
