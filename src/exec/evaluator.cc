#include "exec/evaluator.h"

#include <chrono>
#include <initializer_list>

#include "exec/atomic.h"
#include "exec/boolean.h"
#include "exec/embedded_ref.h"
#include "exec/hierarchy.h"
#include "query/fingerprint.h"

namespace ndq {

namespace {

// On success, protects the freshly produced list while the operand guards
// free, so a failed operand Free cannot leak the output.
Result<EntryList> FinishStep(Disk* disk, Result<EntryList> out,
                             std::initializer_list<ScopedRun*> operands) {
  if (!out.ok()) return out;  // operand guards free via their destructors
  ScopedRun out_guard(disk, out.TakeValue());
  for (ScopedRun* op : operands) NDQ_RETURN_IF_ERROR(op->Free());
  return out_guard.Release();
}

}  // namespace

Result<EntryList> EvalSimpleAgg(Disk* disk, const EntryList& l1,
                                const AggSelFilter& filter, OpTrace* trace) {
  NDQ_ASSIGN_OR_RETURN(AggProgram prog,
                       AggProgram::Compile(filter, /*structural=*/false));
  // Annotate with empty witness-value vectors (no $2 references), then run
  // the shared (<= 2 scan) filter phase.
  RunWriter writer(disk);
  RunReader reader(disk, l1);
  std::string rec, buf;
  const std::vector<std::optional<int64_t>> no_vals;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
    if (!more) break;
    buf.clear();
    WriteAnnotated(no_vals, rec, &buf);
    NDQ_RETURN_IF_ERROR(writer.Add(buf));
  }
  NDQ_ASSIGN_OR_RETURN(Run annotated, writer.Finish());
  Result<EntryList> out =
      FilterAnnotatedList(disk, std::move(annotated), prog);
  if (trace != nullptr && out.ok()) {
    trace->op = QueryOp::kSimpleAgg;
    trace->input_records = l1.num_records;
    trace->input_pages = l1.pages.size();
    trace->output_records = out->num_records;
    trace->output_pages = out->pages.size();
  }
  return out;
}

Evaluator::Evaluator(Disk* disk, const EntrySource* store,
                     ExecOptions options, OperandCache* cache,
                     ThreadPool* pool)
    : disk_(disk),
      store_(store),
      options_(options),
      cache_(cache),
      owned_pool_(pool == nullptr
                      ? std::make_unique<ThreadPool>(
                            options.parallelism == 0 ? 1
                                                     : options.parallelism)
                      : nullptr),
      pool_(pool != nullptr ? pool : owned_pool_.get()) {}

Evaluator::~Evaluator() = default;

EvalStats Evaluator::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Evaluator::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = EvalStats();
}

Result<EntryList> Evaluator::Evaluate(const Query& query,
                                      OpTrace* trace,
                                      const SharedOperands* shared) {
  if (cache_ != nullptr && cache_->disk() != disk_) {
    return Status::InvalidArgument(
        "operand cache is backed by a different disk than the evaluator");
  }
  if (shared != nullptr && !shared->keys.empty() && cache_ == nullptr) {
    return Status::InvalidArgument(
        "shared-operand evaluation requires an operand cache");
  }
  // Pin one store version for the whole query tree: every leaf — on this
  // thread or a forked worker — reads the same snapshot, so concurrent
  // mutations cannot tear a query across versions. Immutable stores
  // return nullptr and are read directly.
  std::shared_ptr<const EntrySource> snapshot =
      store_ != nullptr ? store_->PinSnapshot() : nullptr;
  const EntrySource* store = snapshot != nullptr ? snapshot.get() : store_;
  return EvaluateTraced(query, trace, shared, store);
}

Result<std::vector<Entry>> Evaluator::EvaluateToEntries(
    const Query& query, OpTrace* trace, const SharedOperands* shared) {
  NDQ_ASSIGN_OR_RETURN(EntryList list, Evaluate(query, trace, shared));
  ScopedRun guard(disk_, std::move(list));
  Result<std::vector<Entry>> entries = ReadEntryList(disk_, guard.get());
  Status freed = guard.Free();
  // A read error is the primary failure; a free error only matters when
  // the read itself succeeded.
  if (!entries.ok()) return entries;
  NDQ_RETURN_IF_ERROR(freed);
  return entries;
}

Result<EntryList> Evaluator::EvaluateTraced(
    const Query& query, OpTrace* trace, const SharedOperands* shared,
    const EntrySource* store) {
  if (trace == nullptr) return EvaluateNode(query, nullptr, shared, store);
  *trace = OpTrace();
  trace->label = QueryNodeLabel(query);
  trace->op = query.op();
  trace->worker = ThreadPool::current_worker_id();
  const auto start = std::chrono::steady_clock::now();
  IoStats self;
  Result<EntryList> out = [&] {
    // nullptr disk: count this thread's traffic on every device (scratch
    // plus store, when split).
    // Child scopes on this thread nest inside and claim their own I/O;
    // children on other threads never touch this scope. Either way `self`
    // is exactly this node's own traffic.
    IoScope scope(nullptr, &self);
    return EvaluateNode(query, trace, shared, store);
  }();
  // Recorded on failure too, so a caller that retries the evaluation
  // elsewhere (the fleet's replica walk) can keep the failed attempt's I/O.
  trace->io = self;
  for (const OpTrace& child : trace->children) trace->io += child.io;
  if (!out.ok()) return out;
  trace->wall_micros = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  trace->output_records = out->num_records;
  trace->output_pages = out->pages.size();
  return out;
}

Status Evaluator::EvalOperandInto(const Query& query, OpTrace* trace,
                                  const SharedOperands* shared,
                                  const EntrySource* store,
                                  ScopedRun* out) {
  Result<EntryList> r = EvaluateTraced(query, trace, shared, store);
  if (!r.ok()) return r.status();
  *out = ScopedRun(disk_, r.TakeValue());
  return Status::OK();
}

Result<EntryList> Evaluator::EvalLeaf(const Query& query,
                                      OpTrace* trace,
                                      const EntrySource* store) {
  // Mutable stores stamp a mutation version; keying the cache by it keeps
  // lists computed against superseded versions from ever serving a query
  // pinned to a newer one (the owner's Clear() on mutation is the
  // capacity story, this is the correctness story).
  const uint64_t version = store != nullptr ? store->version() : 0;
  std::string key;
  if (cache_ != nullptr) {
    key = OperandCacheKey(query);
    if (version != 0) key += "@" + std::to_string(version);
    EntryList cached;
    NDQ_ASSIGN_OR_RETURN(bool hit, cache_->Lookup(key, &cached));
    if (hit) {
      if (trace != nullptr) trace->cache_hits = 1;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.atomic_queries;
      stats_.atomic_output_records += cached.num_records;
      return cached;
    }
  }
  Result<EntryList> out = Status::Internal("unreachable");
  bool probed = false;
  if (query.op() == QueryOp::kAtomic && index_hook_.enabled() &&
      (index_hook_.use_probe == nullptr || index_hook_.use_probe(query))) {
    // The probe declines (nullopt) when the attribute is not indexed or
    // the filter kind defeats the index; fall through to the scan then.
    Result<std::optional<Run>> r = index_hook_.indexes->EvalAtomic(
        disk_, *index_hook_.store, query.base(), query.scope(),
        query.filter());
    NDQ_RETURN_IF_ERROR(r.status());
    if (r->has_value()) {
      out = **r;
      probed = true;
      if (trace != nullptr) trace->index_probes = 1;
    }
  }
  if (!probed) {
    out = query.op() == QueryOp::kAtomic
              ? EvalAtomic(disk_, *store, query.base(), query.scope(),
                           query.filter(), trace)
              : EvalLdap(disk_, *store, query.base(), query.scope(),
                         *query.ldap_filter(), trace);
  }
  if (!out.ok()) return out;
  if (cache_ != nullptr) {
    // Insert copies the list; injected faults during the copy are absorbed
    // by the cache (the entry is simply not cached). Anything else is an
    // invariant violation — propagate it, but free the computed list
    // first.
    Status cs = cache_->Insert(key, *out);
    if (!cs.ok()) {
      ScopedRun computed(disk_, out.TakeValue());
      return cs;
    }
    if (trace != nullptr) trace->cache_misses = 1;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.atomic_queries;
  stats_.atomic_output_records += out->num_records;
  return out;
}

Result<EntryList> Evaluator::EvaluateNode(
    const Query& query, OpTrace* trace, const SharedOperands* shared,
    const EntrySource* store) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.operators_evaluated;
  }
  // Cross-query sharing: an interior node the batch scheduler marked
  // shared is served from — and on a miss published to — the operand
  // cache, exactly like a leaf. The first occurrence in the batch
  // evaluates the subtree; every later one copies the finished list out
  // for ~2*out pages. Leaves skip this path (EvalLeaf caches them
  // unconditionally); fingerprints are recomputed per node, which is
  // cheap for directory-query-sized trees.
  const bool leaf =
      query.op() == QueryOp::kAtomic || query.op() == QueryOp::kLdap;
  std::string shared_key;
  if (!leaf && cache_ != nullptr && shared != nullptr &&
      !shared->keys.empty()) {
    // Membership in the batch's shared set is by the bare fingerprint
    // (that is what the scheduler computed); the cache traffic itself is
    // version-stamped like leaf keys, so occurrences pinned to different
    // store versions never share a list.
    std::string key = QueryFingerprint(query);
    if (shared->contains(key)) {
      const uint64_t version = store != nullptr ? store->version() : 0;
      if (version != 0) key += "@" + std::to_string(version);
      EntryList cached;
      NDQ_ASSIGN_OR_RETURN(bool hit, cache_->Lookup(key, &cached));
      if (hit) {
        if (trace != nullptr) {
          trace->cache_hits = 1;
          FillTraceSkeleton(query, trace);
        }
        return cached;
      }
      shared_key = std::move(key);
    }
  }
  Result<EntryList> out = EvaluateOperator(query, trace, shared, store);
  if (!out.ok() || shared_key.empty()) return out;
  // Publish for the batch's other occurrences. Insert copies the list and
  // absorbs injected faults during the copy (the entry is simply not
  // cached); anything else is an invariant violation — propagate it, but
  // free the computed list first.
  Status cs = cache_->Insert(shared_key, *out);
  if (!cs.ok()) {
    ScopedRun computed(disk_, out.TakeValue());
    return cs;
  }
  if (trace != nullptr) trace->cache_misses = 1;
  return out;
}

Result<EntryList> Evaluator::EvaluateOperator(
    const Query& query, OpTrace* trace, const SharedOperands* shared,
    const EntrySource* store) {
  OpTrace* t1 = nullptr;
  OpTrace* t2 = nullptr;
  OpTrace* t3 = nullptr;
  if (trace != nullptr) {
    size_t n = (query.q1() != nullptr ? 1 : 0) +
               (query.q2() != nullptr ? 1 : 0) +
               (query.q3() != nullptr ? 1 : 0);
    trace->children.resize(n);
    if (n > 0) t1 = &trace->children[0];
    if (n > 1) t2 = &trace->children[1];
    if (n > 2) t3 = &trace->children[2];
  }

  switch (query.op()) {
    case QueryOp::kAtomic:
    case QueryOp::kLdap:
      return EvalLeaf(query, trace, store);
    case QueryOp::kSimpleAgg: {
      // One operand: nothing to fork.
      ScopedRun l1;
      NDQ_RETURN_IF_ERROR(
          EvalOperandInto(*query.q1(), t1, shared, store, &l1));
      Result<EntryList> out =
          EvalSimpleAgg(disk_, l1.get(), *query.agg(), trace);
      return FinishStep(disk_, std::move(out), {&l1});
    }
    default:
      break;
  }

  // Multi-operand operators: fork the operand subtrees, join, then run
  // the operator on this thread. The TaskGroup destructor joins EVERY
  // forked subtree before the statuses are read — even when one operand
  // has already failed — so no task is abandoned mid-flight, and the
  // ScopedRun guards free whatever operands did materialize. Errors are
  // then surfaced in operand order (s1, then s2, then s3), which makes
  // the reported status deterministic regardless of which subtree's
  // failure raced in first.
  ScopedRun l1, l2, l3;
  Status s1, s2, s3;
  {
    ThreadPool::TaskGroup group(pool_);
    group.Run(
        [&] { s1 = EvalOperandInto(*query.q1(), t1, shared, store, &l1); });
    group.Run(
        [&] { s2 = EvalOperandInto(*query.q2(), t2, shared, store, &l2); });
    if (query.q3() != nullptr) {
      group.Run(
          [&] { s3 = EvalOperandInto(*query.q3(), t3, shared, store, &l3); });
    }
  }
  NDQ_RETURN_IF_ERROR(s1);
  NDQ_RETURN_IF_ERROR(s2);
  NDQ_RETURN_IF_ERROR(s3);

  Result<EntryList> out = Status::Internal("unreachable");
  switch (query.op()) {
    case QueryOp::kAnd:
    case QueryOp::kOr:
    case QueryOp::kDiff:
      out = EvalBoolean(disk_, query.op(), l1.get(), l2.get(), trace);
      break;
    case QueryOp::kParents:
    case QueryOp::kChildren:
    case QueryOp::kAncestors:
    case QueryOp::kDescendants:
      out = EvalHierarchy(disk_, query.op(), l1.get(), l2.get(), nullptr,
                          query.agg(), options_, trace);
      break;
    case QueryOp::kCoAncestors:
    case QueryOp::kCoDescendants:
      out = EvalHierarchy(disk_, query.op(), l1.get(), l2.get(), &l3.get(),
                          query.agg(), options_, trace);
      break;
    case QueryOp::kValueDn:
    case QueryOp::kDnValue:
      out = EvalEmbeddedRef(disk_, query.op(), l1.get(), l2.get(),
                            query.ref_attr(), query.agg(), options_, trace);
      break;
    default:
      return Status::Internal("unreachable query op in Evaluate");
  }
  return FinishStep(disk_, std::move(out), {&l1, &l2, &l3});
}

}  // namespace ndq
