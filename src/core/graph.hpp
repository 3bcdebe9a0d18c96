// Cluster task graph: what the head node accumulates between wait_all()
// barriers (paper §4.4 — tasks are created eagerly but execution is
// deferred until the implicit barrier, when the whole graph is scheduled).
//
// Node kinds mirror the paper:
//  - Target     — a `target nowait` region (kernel + buffer args + deps)
//  - DataEnter  — `target enter data nowait` (allocate/copy to the cluster)
//  - DataExit   — `target exit data nowait` (retrieve/remove from cluster)
//  - Host       — a classical `task` (always executed on the head, §4.4)
//
// Edges are derived from depend clauses with OpenMP semantics and carry the
// byte size of the dependence's buffer, which feeds the HEFT communication
// cost model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "core/tenant.hpp"
#include "offload/kernel_registry.hpp"
#include "omptask/dep.hpp"

namespace ompc::core {

enum class TaskType : std::uint8_t { Target, DataEnter, DataExit, Host };

struct ClusterTask {
  int id = 0;
  TaskType type = TaskType::Target;

  // Target tasks.
  offload::KernelId kernel = offload::kInvalidKernel;
  std::vector<const void*> buffer_args;  ///< host pointers, positional
  Bytes scalars;
  double cost_s = 0.0;  ///< compute estimate for the scheduler (0 = default)

  // Data tasks.
  const void* buffer = nullptr;
  bool copy = true;  ///< enter: copy payload; exit: copy back to host
  /// DataEnter only: the mapping's byte size. Recording never touches the
  /// DM (a tenant's thread must not mutate the registry while another
  /// tenant's wave is in flight): execute_wave registers the enter from
  /// it, and the serialized wave log carries it, so a promoted head can
  /// replay an enter it never saw registered.
  std::size_t buffer_bytes = 0;

  // Host tasks. A std::function cannot cross a serialization boundary, so
  // the closure is interned in the process-wide HostFnRegistry and the
  // handle travels in its place (head replication; valid because workers
  // share the process in this simulated cluster).
  std::function<void()> host_fn;
  std::uint64_t host_fn_handle = 0;  ///< 0 = none

  omp::DepList deps;

  // Derived edges (indices into the graph's task vector).
  std::vector<int> preds;
  std::vector<int> succs;
  /// Buffers this task writes last in its wave, whatever the later tasks'
  /// types (derived with the edges): nothing else in the wave writes them
  /// after this task completes.
  std::vector<const void*> last_writes;
};

struct Edge {
  int from = 0;
  int to = 0;
  std::size_t bytes = 0;
};

/// A graph view with data tasks collapsed away: HEFT schedules compute
/// tasks only, and the paper's adaptation pins each data task to its
/// consumer/producer afterwards (§4.4, second adaptation).
struct CollapsedView {
  std::vector<int> task_ids;            ///< graph ids of the view's nodes
  std::vector<int> view_index;          ///< graph id -> view index (-1 none)
  std::vector<std::vector<std::pair<int, std::size_t>>> succs;  ///< per view node: (succ view idx, bytes)
  std::vector<std::vector<std::pair<int, std::size_t>>> preds;
};

class ClusterGraph {
 public:
  /// `buffer_size(addr)` resolves a dependence address to its buffer size
  /// for edge weights (unknown addresses weigh 0).
  explicit ClusterGraph(
      std::function<std::size_t(const void*)> buffer_size = {});

  int add_task(ClusterTask task);

  /// Resolves depend clauses into edges. Called once, after all add_task().
  void build_edges();

  std::size_t size() const noexcept { return tasks_.size(); }
  bool empty() const noexcept { return tasks_.empty(); }
  const ClusterTask& task(int id) const { return tasks_[static_cast<std::size_t>(id)]; }
  ClusterTask& task(int id) { return tasks_[static_cast<std::size_t>(id)]; }
  const std::deque<ClusterTask>& tasks() const noexcept { return tasks_; }
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Entry tasks (no predecessors). Valid after build_edges().
  std::vector<int> roots() const;

  /// Topological order (ids). Throws if the dependence graph has a cycle
  /// (impossible via depend clauses, defensive for hand-built graphs).
  std::vector<int> topological_order() const;

  /// Data-task-free view for the scheduler.
  CollapsedView collapsed() const;

  /// Structural fingerprint for schedule memoization (paper Fig. 7b:
  /// iterative applications re-record an identical DAG every time step).
  /// Covers every input the scheduler reads: task types, kernels, cost
  /// hints, the dependence lists (addresses + access types) and the
  /// dependence buffers' byte sizes. Equal hashes mean build_edges()
  /// derives identical edges and schedule() sees an identical problem.
  std::uint64_t structural_hash() const;

  /// Bytes attached to the edge from->to (0 when absent).
  std::size_t edge_bytes(int from, int to) const;

  /// The submission stream this wave belongs to. Deliberately NOT part of
  /// structural_hash(): two tenants recording the same DAG shape share a
  /// schedule-cache entry, which is the whole point of the memoization.
  /// It IS part of serialize_graph(), so wave-log entries stay
  /// tenant-scoped across head failover and per-tenant recovery
  /// accounting survives the handoff.
  TenantId tenant() const noexcept { return tenant_; }
  void set_tenant(TenantId t) noexcept { tenant_ = t; }

  /// Replaces the edge-weight resolver (a recorder hands each wave over
  /// with a self-contained one: the wave may be scheduled or replayed long
  /// after the recorder's own mapped set changed).
  void set_buffer_size_fn(std::function<std::size_t(const void*)> fn) {
    buffer_size_ = std::move(fn);
  }

 private:
  std::function<std::size_t(const void*)> buffer_size_;
  TenantId tenant_ = kDefaultTenant;
  // A deque, not a vector: recording a wave never reallocates and copies
  // the tasks recorded so far, so the head's heap peak stays one graph.
  std::deque<ClusterTask> tasks_;
  std::vector<Edge> edges_;
  bool edges_built_ = false;
};

/// Process-wide host-task closure registry (head replication): a promoted
/// head resurrects a replicated wave's host tasks by handle. Entries live
/// for the process — handles are issued once per recorded task.
class HostFnRegistry {
 public:
  static HostFnRegistry& instance();

  /// Stores `fn` and returns its handle (> 0).
  std::uint64_t intern(std::function<void()> fn);

  /// Resolves a handle; throws on an unknown one.
  std::function<void()> get(std::uint64_t handle) const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t next_ = 1;
  std::unordered_map<std::uint64_t, std::function<void()>> fns_;
};

/// Flattens a built graph's tasks for the head-state replica. Derived
/// edges are not shipped; deserialize_graph() rebuilds them.
Bytes serialize_graph(const ClusterGraph& g);

/// Inverse of serialize_graph: reconstructs the tasks (host_fn resolved
/// through the HostFnRegistry) and rebuilds the edges.
ClusterGraph deserialize_graph(
    std::span<const std::byte> data,
    std::function<std::size_t(const void*)> buffer_size);

}  // namespace ompc::core
