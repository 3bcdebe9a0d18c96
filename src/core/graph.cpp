#include "core/graph.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

#include "common/check.hpp"

namespace ompc::core {

ClusterGraph::ClusterGraph(std::function<std::size_t(const void*)> buffer_size)
    : buffer_size_(std::move(buffer_size)) {}

int ClusterGraph::add_task(ClusterTask task) {
  OMPC_CHECK_MSG(!edges_built_, "graph is frozen after build_edges()");
  const int id = static_cast<int>(tasks_.size());
  task.id = id;
  tasks_.push_back(std::move(task));
  return id;
}

void ClusterGraph::build_edges() {
  OMPC_CHECK(!edges_built_);
  edges_built_ = true;

  struct AddrState {
    int last_writer = -1;
    std::vector<int> readers_since_write;
  };
  std::unordered_map<const void*, AddrState> state;

  // De-duplicates multi-dep edges between the same task pair, keeping the
  // largest byte weight (a pair linked through two buffers transfers both,
  // but HEFT's cost model charges the critical transfer).
  std::map<std::pair<int, int>, std::size_t> edge_set;

  auto add_edge = [&](int from, int to, const void* addr) {
    if (from < 0 || from == to) return;
    const std::size_t bytes =
        (buffer_size_ && addr != nullptr) ? buffer_size_(addr) : 0;
    auto [it, inserted] = edge_set.emplace(std::make_pair(from, to), bytes);
    if (!inserted) it->second = std::max(it->second, bytes);
  };

  for (const ClusterTask& t : tasks_) {
    for (const omp::Dep& d : t.deps) {
      AddrState& st = state[d.addr];
      if (d.type == omp::DepType::In) {
        add_edge(st.last_writer, t.id, d.addr);
        st.readers_since_write.push_back(t.id);
      } else {
        add_edge(st.last_writer, t.id, d.addr);
        for (int r : st.readers_since_write) add_edge(r, t.id, d.addr);
        st.readers_since_write.clear();
        st.last_writer = t.id;
      }
    }
  }

  edges_.reserve(edge_set.size());
  for (const auto& [pair, bytes] : edge_set) {
    edges_.push_back(Edge{pair.first, pair.second, bytes});
    tasks_[static_cast<std::size_t>(pair.first)].succs.push_back(pair.second);
    tasks_[static_cast<std::size_t>(pair.second)].preds.push_back(pair.first);
  }
  // Writers of one address are chained by the edges above, so the last one
  // recorded is also the last one to run.
  for (const auto& [addr, st] : state)
    if (st.last_writer >= 0)
      tasks_[static_cast<std::size_t>(st.last_writer)].last_writes.push_back(
          addr);
}

std::uint64_t ClusterGraph::structural_hash() const {
  // FNV-1a over everything the scheduler consumes. Host-pointer values
  // stand in for buffer identity: an iterative program re-using the same
  // buffers hashes identically wave after wave, which is the case worth
  // memoizing.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(tasks_.size());
  for (const ClusterTask& t : tasks_) {
    mix(static_cast<std::uint64_t>(t.type));
    mix(static_cast<std::uint64_t>(t.kernel));
    std::uint64_t cost_bits = 0;
    static_assert(sizeof cost_bits == sizeof t.cost_s);
    std::memcpy(&cost_bits, &t.cost_s, sizeof cost_bits);
    mix(cost_bits);
    mix(reinterpret_cast<std::uintptr_t>(t.buffer));
    mix(static_cast<std::uint64_t>(t.copy));
    mix(t.deps.size());
    for (const omp::Dep& d : t.deps) {
      mix(reinterpret_cast<std::uintptr_t>(d.addr));
      mix(static_cast<std::uint64_t>(d.type));
      if (buffer_size_ && d.addr != nullptr) mix(buffer_size_(d.addr));
    }
  }
  return h;
}

std::vector<int> ClusterGraph::roots() const {
  std::vector<int> out;
  for (const ClusterTask& t : tasks_) {
    if (t.preds.empty()) out.push_back(t.id);
  }
  return out;
}

std::vector<int> ClusterGraph::topological_order() const {
  std::vector<int> indegree(tasks_.size(), 0);
  for (const ClusterTask& t : tasks_)
    indegree[static_cast<std::size_t>(t.id)] = static_cast<int>(t.preds.size());

  std::vector<int> order;
  order.reserve(tasks_.size());
  std::vector<int> frontier = roots();
  while (!frontier.empty()) {
    const int id = frontier.back();
    frontier.pop_back();
    order.push_back(id);
    for (int s : tasks_[static_cast<std::size_t>(id)].succs) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) frontier.push_back(s);
    }
  }
  OMPC_CHECK_MSG(order.size() == tasks_.size(),
                 "dependence graph contains a cycle");
  return order;
}

std::size_t ClusterGraph::edge_bytes(int from, int to) const {
  for (const Edge& e : edges_) {
    if (e.from == from && e.to == to) return e.bytes;
  }
  return 0;
}

HostFnRegistry& HostFnRegistry::instance() {
  static HostFnRegistry reg;
  return reg;
}

std::uint64_t HostFnRegistry::intern(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t h = next_++;
  fns_.emplace(h, std::move(fn));
  return h;
}

std::function<void()> HostFnRegistry::get(std::uint64_t handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = fns_.find(handle);
  OMPC_CHECK_MSG(it != fns_.end(), "unknown host-fn handle " << handle);
  return it->second;
}

Bytes serialize_graph(const ClusterGraph& g) {
  ArchiveWriter w;
  w.put<std::int32_t>(g.tenant());
  w.put<std::uint64_t>(g.size());
  for (const ClusterTask& t : g.tasks()) {
    w.put(t.type);
    w.put(t.kernel);
    w.put(t.cost_s);
    w.put<std::uint64_t>(reinterpret_cast<std::uintptr_t>(t.buffer));
    w.put<std::uint64_t>(t.buffer_bytes);
    w.put<std::uint8_t>(t.copy ? 1 : 0);
    w.put(t.host_fn_handle);
    w.put<std::uint64_t>(t.buffer_args.size());
    for (const void* b : t.buffer_args)
      w.put<std::uint64_t>(reinterpret_cast<std::uintptr_t>(b));
    w.put_blob(std::span<const std::byte>(t.scalars.data(), t.scalars.size()));
    w.put<std::uint64_t>(t.deps.size());
    for (const omp::Dep& d : t.deps) {
      w.put<std::uint64_t>(reinterpret_cast<std::uintptr_t>(d.addr));
      w.put(d.type);
    }
  }
  return w.take();
}

ClusterGraph deserialize_graph(
    std::span<const std::byte> data,
    std::function<std::size_t(const void*)> buffer_size) {
  ArchiveReader r(data);
  ClusterGraph g(std::move(buffer_size));
  g.set_tenant(r.get<std::int32_t>());
  const auto n = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) {
    ClusterTask t;
    t.type = r.get<TaskType>();
    t.kernel = r.get<offload::KernelId>();
    t.cost_s = r.get<double>();
    t.buffer = reinterpret_cast<const void*>(
        static_cast<std::uintptr_t>(r.get<std::uint64_t>()));
    t.buffer_bytes = static_cast<std::size_t>(r.get<std::uint64_t>());
    t.copy = r.get<std::uint8_t>() != 0;
    t.host_fn_handle = r.get<std::uint64_t>();
    if (t.host_fn_handle != 0)
      t.host_fn = HostFnRegistry::instance().get(t.host_fn_handle);
    const auto nb = r.get<std::uint64_t>();
    t.buffer_args.reserve(nb);
    for (std::uint64_t b = 0; b < nb; ++b)
      t.buffer_args.push_back(reinterpret_cast<const void*>(
          static_cast<std::uintptr_t>(r.get<std::uint64_t>())));
    t.scalars = r.get_blob();
    const auto nd = r.get<std::uint64_t>();
    t.deps.reserve(nd);
    for (std::uint64_t d = 0; d < nd; ++d) {
      omp::Dep dep;
      dep.addr = reinterpret_cast<const void*>(
          static_cast<std::uintptr_t>(r.get<std::uint64_t>()));
      dep.type = r.get<omp::DepType>();
      t.deps.push_back(dep);
    }
    g.add_task(std::move(t));
  }
  g.build_edges();
  return g;
}

CollapsedView ClusterGraph::collapsed() const {
  CollapsedView v;
  v.view_index.assign(tasks_.size(), -1);
  for (const ClusterTask& t : tasks_) {
    if (t.type == TaskType::Target || t.type == TaskType::Host) {
      v.view_index[static_cast<std::size_t>(t.id)] =
          static_cast<int>(v.task_ids.size());
      v.task_ids.push_back(t.id);
    }
  }
  v.succs.resize(v.task_ids.size());
  v.preds.resize(v.task_ids.size());

  // Collapse chains compute -> data* -> compute into direct edges carrying
  // the max byte weight along the chain. Data-task chains are short (a
  // single data node), so a small DFS per edge suffices.
  auto is_compute = [&](int id) {
    return v.view_index[static_cast<std::size_t>(id)] >= 0;
  };

  auto add = [&](int from_view, int to_view, std::size_t bytes) {
    auto& sl = v.succs[static_cast<std::size_t>(from_view)];
    for (auto& [t, b] : sl) {
      if (t == to_view) {
        b = std::max(b, bytes);
        return;
      }
    }
    sl.emplace_back(to_view, bytes);
    v.preds[static_cast<std::size_t>(to_view)].emplace_back(from_view, bytes);
  };

  for (const Edge& e : edges_) {
    if (!is_compute(e.from)) continue;
    const int from_view = v.view_index[static_cast<std::size_t>(e.from)];
    if (is_compute(e.to)) {
      add(from_view, v.view_index[static_cast<std::size_t>(e.to)], e.bytes);
      continue;
    }
    // e.to is a data task: connect to each of its compute successors.
    for (int s : tasks_[static_cast<std::size_t>(e.to)].succs) {
      if (is_compute(s)) {
        add(from_view, v.view_index[static_cast<std::size_t>(s)],
            std::max(e.bytes, edge_bytes(e.to, s)));
      }
    }
  }
  return v;
}

}  // namespace ompc::core
