// The bottom-up external-memory query evaluator (Sec. 8.2).
//
// "Each query expression can be evaluated bottom-up ...: first, the atomic
// queries are evaluated, and the resulting entries are sorted by the
// lexicographic ordering on the reverse of their dn's. Next, each operator
// in the query tree is evaluated ... Since each operator gets sorted input
// lists, and computes a sorted output list, no additional sorting of the
// result of an intermediate operator is necessary."
//
// Every intermediate list lives on disk; each operator uses a constant
// number of page buffers (plus the spillable stacks), so whole-query
// evaluation runs in constant main memory with the I/O bounds of Theorems
// 8.3 (L2: linear) and 8.4 (L3: N log N).
//
// The plans have natural task parallelism: an operator's operands
// (q1/q2[/q3]) touch disjoint intermediate lists, so their subtrees
// evaluate concurrently on a ThreadPool and join at the operator. Each
// operator still consumes fully-materialized sorted operands, so every
// record of every intermediate and final list — and every page count, the
// theorems' currency — is independent of the schedule; parallelism 1 runs
// the same code inline.
//
// Passing an OpTrace to Evaluate records a per-operator execution trace
// (exec/trace.h) — counters, I/O, wall time and worker for every node —
// which ExplainAnalyze (exec/cost.h) renders against the cost model's
// predictions. I/O is attributed with IoScope (storage/disk.h): each
// node's scope captures only the I/O its own thread does for that node,
// so attribution stays exact under concurrency, and cumulative subtree
// I/O is reassembled as self + sum of children.
//
// An optional OperandCache short-circuits repeated atomic leaves (see
// exec/operand_cache.h); hits and misses land in the leaf's OpTrace. A
// batch scheduler can additionally pass a SharedOperands set of interior
// plan fingerprints (query/fingerprint.h): nodes in the set are served
// from / published to the same cache, which is how shared operand
// subtrees across a batch of queries evaluate exactly once.

#ifndef NDQ_EXEC_EVALUATOR_H_
#define NDQ_EXEC_EVALUATOR_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "exec/common.h"
#include "exec/operand_cache.h"
#include "exec/thread_pool.h"
#include "exec/trace.h"
#include "index/attr_index.h"
#include "query/ast.h"
#include "store/entry_store.h"

namespace ndq {

/// Per-query evaluation statistics.
struct EvalStats {
  uint64_t operators_evaluated = 0;
  uint64_t atomic_queries = 0;
  /// Cumulative size (records) of all atomic sub-query outputs: the |L| of
  /// Theorem 8.3.
  uint64_t atomic_output_records = 0;
};

/// Index-assisted leaf evaluation, installed by the owner (the engine)
/// when attribute indexes exist over the store. `use_probe` is the
/// cost-based scan-vs-probe decision (query/optimize.h ChooseAccessPath,
/// bound by the engine so exec does not depend on the planner); the
/// evaluator consults it per atomic leaf and falls back to the range
/// scan when the probe declines or the attribute turns out not to be
/// indexed. Results are byte-identical either way.
struct IndexHook {
  const AttributeIndexes* indexes = nullptr;
  const EntryStore* store = nullptr;  ///< the indexed (bulk-loaded) store
  std::function<bool(const Query&)> use_probe;

  bool enabled() const { return indexes != nullptr && store != nullptr; }
};

/// The shared-subtree set a batch scheduler computed over one batch of
/// canonicalized plans (PlanCensus::SharedKeys). When passed to Evaluate,
/// the evaluator consults its OperandCache at every INTERIOR node whose
/// fingerprint is in the set — a hit replaces the whole subtree's
/// evaluation with a ~2*out-page cached copy, a miss evaluates normally
/// and publishes the result for the batch's other occurrences.
struct SharedOperands {
  std::unordered_set<std::string> keys;  ///< plan fingerprints
  bool contains(const std::string& fp) const { return keys.count(fp) != 0; }
};

/// \brief Evaluates query trees against one directory server's store.
///
/// Each top-level Evaluate pins one snapshot of a mutable store
/// (EntrySource::PinSnapshot) and evaluates every leaf against it, so a
/// query tree always observes ONE store version even while concurrent
/// mutations land — no torn reads across atomic leaves. Evaluate is safe
/// to call from several threads at once.
class Evaluator {
 public:
  /// Operand subtrees fork onto `pool` (non-owning, must outlive the
  /// evaluator), so one pool bounds parallelism across every in-flight
  /// query that shares it. A null `pool` gives the evaluator a private
  /// pool of `options.parallelism` threads (1 = sequential, same code
  /// path). A non-null `cache` must be backed by the same scratch disk as
  /// the evaluator; it is consulted for every atomic leaf and must be
  /// Clear()ed by the owner whenever the store mutates.
  Evaluator(Disk* disk, const EntrySource* store, ExecOptions options = {},
            OperandCache* cache = nullptr, ThreadPool* pool = nullptr);
  ~Evaluator();

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Evaluates the query; the caller owns (and frees) the returned list.
  /// A non-null `trace` is overwritten with the per-operator execution
  /// trace of this evaluation (one OpTrace node per plan node), including
  /// which worker ran each node and the leaf cache traffic. A non-null
  /// `shared` enables interior-node caching as described on
  /// SharedOperands (requires a cache).
  Result<EntryList> Evaluate(const Query& query, OpTrace* trace = nullptr,
                             const SharedOperands* shared = nullptr);

  /// Convenience: evaluates and deserializes the result entries.
  Result<std::vector<Entry>> EvaluateToEntries(
      const Query& query, OpTrace* trace = nullptr,
      const SharedOperands* shared = nullptr);

  size_t parallelism() const { return pool_->parallelism(); }
  OperandCache* cache() const { return cache_; }

  /// Installs (or, default-constructed, clears) the index hook. Must not
  /// be called while a query is in flight; the referenced indexes/store
  /// must outlive their installation.
  void SetIndexHook(IndexHook hook) { index_hook_ = std::move(hook); }
  const IndexHook& index_hook() const { return index_hook_; }

  EvalStats stats() const;
  void ResetStats();

 private:
  // Each public Evaluate pins ONE snapshot of a mutable store
  // (EntrySource::PinSnapshot) and threads it down the recursion as
  // `store`, so every forked subtree of a query reads the same store
  // version even while concurrent mutations publish new states. Cache
  // keys are stamped with the snapshot's mutation version (when nonzero),
  // so lists computed against different versions never alias.

  /// Trace-wrapping recursion step: opens this node's IoScope, times it,
  /// and reassembles cumulative io as self + sum of children.
  Result<EntryList> EvaluateTraced(const Query& query, OpTrace* trace,
                                   const SharedOperands* shared,
                                   const EntrySource* store);
  /// Shared-subtree cache check around EvaluateOperator.
  Result<EntryList> EvaluateNode(const Query& query, OpTrace* trace,
                                 const SharedOperands* shared,
                                 const EntrySource* store);
  /// Leaf dispatch or fork/join operator evaluation proper.
  Result<EntryList> EvaluateOperator(const Query& query, OpTrace* trace,
                                     const SharedOperands* shared,
                                     const EntrySource* store);
  Result<EntryList> EvalLeaf(const Query& query, OpTrace* trace,
                             const EntrySource* store);
  /// Evaluates one operand subtree into a ScopedRun (fork target).
  Status EvalOperandInto(const Query& query, OpTrace* trace,
                         const SharedOperands* shared,
                         const EntrySource* store, ScopedRun* out);

  Disk* disk_;
  const EntrySource* store_;
  ExecOptions options_;
  OperandCache* cache_;
  IndexHook index_hook_;
  std::unique_ptr<ThreadPool> owned_pool_;  // null when pool is borrowed
  ThreadPool* pool_;
  mutable std::mutex stats_mu_;
  EvalStats stats_;
};

/// Simple aggregate selection "(g L1 AggSelFilter)" over a materialized
/// list (Theorem 6.1: at most two scans + output). Exposed for benches.
Result<EntryList> EvalSimpleAgg(Disk* disk, const EntryList& l1,
                                const AggSelFilter& filter,
                                OpTrace* trace = nullptr);

}  // namespace ndq

#endif  // NDQ_EXEC_EVALUATOR_H_
