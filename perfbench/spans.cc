// The traced run: one client replays the workload's streams and records a
// span around each public call into a layer. Per-layer metrics come from
// those spans and from the counters read at the same boundaries. Nothing
// inside src/ is instrumented; exec figures come from the OpTrace the
// engine already returns with every outcome.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>

#include "core/ldif.h"
#include "perfbench.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "storage/serde.h"

namespace perfbench {

using namespace ndq;
using Clock = std::chrono::steady_clock;

namespace {

struct Span {
  const char* name;
  uint32_t id;
  uint32_t parent;  // 0 = root
  uint64_t request;
  Cls cls;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t items;  // records, entries or ops the call handled
};

// Spans of one single-threaded replay, kept in memory until the end.
// While disabled, Begin records nothing and returns 0, and End(0) does
// nothing.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  uint32_t Begin(const char* name, uint32_t parent, uint64_t request, Cls cls) {
    if (!enabled_) return 0;
    spans_.push_back({name, static_cast<uint32_t>(spans_.size() + 1), parent,
                      request, cls, Now(), 0, 0});
    return spans_.back().id;
  }
  void End(uint32_t id, uint64_t items) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.end_ns = Now();
    s.items = items;
  }
  const Span& at(uint32_t id) const { return spans_[id - 1]; }

  // Durations (us) of the spans named `name`, of class `cls` if given.
  std::vector<double> DurationsUs(const std::string& name, int cls = -1) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name && (cls < 0 || static_cast<int>(s.cls) == cls)) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }
  // Total time over total items of the spans named `name`, in ns.
  double NsPerItem(const std::string& name) const {
    double ns = 0, items = 0;
    for (const Span& s : spans_) {
      if (name == s.name) {
        ns += static_cast<double>(s.end_ns - s.start_ns);
        items += static_cast<double>(s.items);
      }
    }
    return items > 0 ? ns / items : 0;
  }

  void Write(const std::string& path) const {
    if (path.empty()) return;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   path.c_str());
      std::exit(2);
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                   "\"request\": %llu, \"class\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"items\": %llu}\n",
                   s.name, s.id, s.parent,
                   static_cast<unsigned long long>(s.request), ClsName(s.cls),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.items));
    }
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "perfbench: short write to %s\n", path.c_str());
      std::exit(2);
    }
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 origin_)
        .count();
  }

  bool enabled_ = true;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Page transfers on the data side (the store, or every fleet replica) and
// on the scratch disk (intermediates; the coordinator in a fleet).
struct DiskIo {
  uint64_t data_reads = 0, data_writes = 0;
  uint64_t scratch_reads = 0, scratch_writes = 0;
};

DiskIo ReadDiskIo(Setup* s) {
  DiskIo io;
  auto add = [&](Disk* d) {
    io.data_reads += d->stats().page_reads;
    io.data_writes += d->stats().page_writes;
  };
  if (DistributedDirectory* fleet = s->engine->fleet()) {
    for (DirectoryServer* server : fleet->servers()) add(server->disk());
  } else {
    add(s->engine->data_disk());
  }
  io.scratch_reads = s->engine->scratch()->stats().page_reads;
  io.scratch_writes = s->engine->scratch()->stats().page_writes;
  return io;
}

// exec operator families of the OpTrace tree.
enum Family { kAtomicF, kBooleanF, kHierarchyF, kAggregateF, kEmbeddedRefF };
const char* const kFamilyNames[] = {"atomic", "boolean", "hierarchy",
                                    "aggregate", "embedded_ref"};

Family FamilyOf(QueryOp op) {
  switch (op) {
    case QueryOp::kAtomic:
    case QueryOp::kLdap:
      return kAtomicF;
    case QueryOp::kAnd:
    case QueryOp::kOr:
    case QueryOp::kDiff:
      return kBooleanF;
    case QueryOp::kSimpleAgg:
      return kAggregateF;
    case QueryOp::kValueDn:
    case QueryOp::kDnValue:
      return kEmbeddedRefF;
    default:
      return kHierarchyF;
  }
}

struct ExecTotals {
  double self_us[5] = {0, 0, 0, 0, 0};
  uint64_t sort_merge_passes = 0;
  uint64_t stack_spills = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

void AddTrace(const OpTrace& t, ExecTotals* x) {
  double children = 0;
  for (const OpTrace& c : t.children) {
    children += c.wall_micros;
    AddTrace(c, x);
  }
  x->self_us[FamilyOf(t.op)] += std::max(0.0, t.wall_micros - children);
  x->sort_merge_passes += t.sort_merge_passes;
  x->stack_spills += t.stack_spills;
  x->cache_hits += t.cache_hits;
  x->cache_misses += t.cache_misses;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The stores an atomic leaf at (base, scope) reads: the engine's store, or
// the first replica of every fleet shard that owns part of the range.
std::vector<const EntrySource*> LeafStores(Setup* s, const Query& leaf) {
  DistributedDirectory* fleet = s->engine->fleet();
  if (fleet == nullptr) return {&s->engine->store()};
  std::vector<const EntrySource*> out;
  for (const std::string& name : fleet->OwnersFor(leaf.base(), leaf.scope())) {
    out.push_back(&fleet->FindShard(name)->replica(0)->store());
  }
  return out;
}

// Whether a key returned by the scope's range scan is inside the scope
// (the range over-approximates, as in exec/atomic.cc).
bool InScope(const Query& leaf, std::string_view key) {
  const std::string& base = leaf.base().HierKey();
  switch (leaf.scope()) {
    case Scope::kBase:
      return true;
    case Scope::kOne:
      return key == base || KeyIsParent(base, key);
    case Scope::kSub:
      return KeyInSubtree(base, key);
  }
  return true;
}

class TracedReplay {
 public:
  TracedReplay(Setup* s, Workload w, uint64_t seed)
      : s_(s), session_(s->engine->OpenSession()) {
    const bool rw = w == Workload::kLocalReadWrite;
    readers_ = ReaderCount(w);
    for (int c = 0; c < readers_; ++c) {
      mixes_.emplace_back(s->shape, seed, c, readers_, /*skewed=*/!rw);
    }
    if (rw) {
      model_ = std::make_unique<DirectoryInstance>(*s->dir);
      writes_ = std::make_unique<WriteStream>(*s->dir, seed, 4);
    }
  }

  // One round: a request from each reader stream in turn, then (read-write
  // only) one write batch. Every fifth read runs with tracing off: it
  // makes the same layer calls, but records no spans and reads no
  // counters at their boundaries. A period prime to the reader count
  // rotates the untraced reads over the clients. Write batches are always
  // traced.
  void Round() {
    for (ReadMix& mix : mixes_) {
      const Request req = mix.Next();
      const bool traced = reads_++ % 5 != 4;
      SetTraced(traced);
      const Clock::time_point t0 = Clock::now();
      TracedRead(req);
      ShapeTime& t = shape_time_[req.kind];
      t.seconds[traced] +=
          std::chrono::duration<double>(Clock::now() - t0).count();
      ++t.reads[traced];
    }
    SetTraced(true);
    if (writes_ != nullptr) {
      UpdateBatch batch = writes_->Next(*model_);
      UpdateResult res = TracedWrite(batch);
      ApplyToModel(batch, res, model_.get());
      attempted_ += batch.size();
      failed_ += batch.size() - res.applied;
    }
  }

  void SetCacheEvictions(uint64_t n) { evictions_ = n; }

  Metrics Finish(const std::string& spans_path, uint64_t* attempted,
                 uint64_t* failed, uint64_t* mismatched);

 private:
  // Time spent in the reads of one query shape, untraced [0] and traced
  // [1].
  struct ShapeTime {
    double seconds[2] = {0, 0};
    uint64_t reads[2] = {0, 0};
  };

  void SetTraced(bool traced) {
    traced_ = traced;
    log_.set_enabled(traced);
  }
  uint32_t Begin(const char* name, uint32_t parent, Cls cls) {
    return log_.Begin(name, parent, request_, cls);
  }
  double ReadQps(int traced) const;

  void TracedRead(const Request& req);
  void TraceLeaf(const Query& leaf, uint32_t parent, Cls cls);
  UpdateResult TracedWrite(const UpdateBatch& batch);

  Setup* s_;
  Session session_;
  int readers_ = 0;
  std::vector<ReadMix> mixes_;
  std::vector<Sample> samples_;
  std::unique_ptr<DirectoryInstance> model_;
  std::unique_ptr<WriteStream> writes_;
  SpanLog log_;
  bool traced_ = true;
  uint64_t request_ = 0;
  uint64_t reads_ = 0;  // traced and untraced
  std::map<std::string, ShapeTime> shape_time_;
  uint64_t attempted_ = 0, failed_ = 0, mismatched_ = 0;

  // Counters read at the span boundaries.
  uint64_t traced_queries_ = 0;
  std::vector<double> overhead_us_;
  std::vector<double> evaluate_us_[kNumReadClasses];
  ExecTotals exec_;
  DiskIo io_prefix_;          // first kIoPrefix traced queries only
  uint64_t io_prefix_queries_ = 0;
  uint64_t leaf_scanned_ = 0, leaf_matched_ = 0;
  NetStats net_;
  uint64_t dist_queries_ = 0, dist_output_ = 0;
  uint64_t user_bytes_written_ = 0, data_pages_written_ = 0;
  uint64_t write_ops_ = 0;
  double write_seconds_ = 0;
  uint64_t wal_records_ = 0;
  uint64_t evictions_ = 0;  // over traced and untraced rounds
};

// Storage counts are averaged over a fixed prefix of the replay, so with
// one client they repeat exactly for a given seed.
constexpr uint64_t kIoPrefix = 100;
// Every this-many-th replayed read is checked against query/reference.
constexpr uint64_t kSampleEvery = 53;
constexpr uint64_t kLeafRecords = 2048;

void TracedReplay::TracedRead(const Request& req) {
  ++request_;
  ++attempted_;
  if (traced_) ++traced_queries_;
  const uint32_t root = Begin("request", 0, req.cls);

  uint32_t id = Begin("query.parse", root, req.cls);
  Result<QueryPtr> parsed = ParseQuery(req.text);
  log_.End(id, 1);
  if (!parsed.ok()) {
    ++failed_;
    log_.End(root, 0);
    return;
  }
  id = Begin("query.rewrite", root, req.cls);
  QueryPtr canonical = RewriteQuery(*parsed);
  log_.End(id, 1);
  id = Begin("query.optimize", root, req.cls);
  {
    std::shared_ptr<const EntrySource> pinned =
        s_->engine->store().PinSnapshot();
    const EntrySource& src = pinned ? *pinned : s_->engine->store();
    OptimizedPlan plan = OptimizeQuery(src, canonical);
    log_.End(id, plan.stats.Total());
  }

  DiskIo io0;
  if (traced_) io0 = ReadDiskIo(s_);
  id = Begin("engine.run", root, req.cls);
  QueryOutcome out = session_.Run(req.text);
  log_.End(id, out.entries.size());
  if (!out.ok() || !out.warnings.empty()) {
    ++failed_;
    log_.End(root, 0);
    return;
  }
  if (traced_ && io_prefix_queries_ < kIoPrefix) {
    const DiskIo io1 = ReadDiskIo(s_);
    ++io_prefix_queries_;
    io_prefix_.data_reads += io1.data_reads - io0.data_reads;
    io_prefix_.data_writes += io1.data_writes - io0.data_writes;
    io_prefix_.scratch_reads += io1.scratch_reads - io0.scratch_reads;
    io_prefix_.scratch_writes += io1.scratch_writes - io0.scratch_writes;
  }
  if (traced_) {
    const Span& run = log_.at(id);
    const double run_us = static_cast<double>(run.end_ns - run.start_ns) / 1e3;
    overhead_us_.push_back(run_us - out.trace.wall_micros);
    evaluate_us_[static_cast<int>(req.cls)].push_back(out.trace.wall_micros);
    AddTrace(out.trace, &exec_);
  }
  // Reads of the read-write workload see a moving store; only the static
  // directories have a reference answer.
  if (model_ == nullptr && request_ % kSampleEvery == 0) {
    samples_.push_back({req.text, SerializeAll(out.entries)});
  }

  if (DistributedDirectory* fleet = s_->engine->fleet()) {
    // The same canonical plan, straight into the dist layer.
    std::optional<NetStats> before;
    if (traced_) before.emplace(fleet->net_stats());
    std::vector<DegradationWarning> warnings;
    id = Begin("dist.execute", root, req.cls);
    Result<std::vector<Entry>> direct =
        fleet->Execute(*out.plan, nullptr, &warnings);
    log_.End(id, direct.ok() ? direct->size() : 0);
    if (before) {
      const NetStats& after = fleet->net_stats();
      net_.messages += after.messages - before->messages;
      net_.records_shipped += after.records_shipped - before->records_shipped;
      net_.bytes_shipped += after.bytes_shipped - before->bytes_shipped;
      net_.servers_contacted +=
          after.servers_contacted - before->servers_contacted;
      net_.retries += after.retries - before->retries;
      net_.failovers += after.failovers - before->failovers;
      ++dist_queries_;
    }
    if (!direct.ok() || !warnings.empty() ||
        SerializeAll(*direct) != SerializeAll(out.entries)) {
      ++mismatched_;
      std::fprintf(stderr, "perfbench: MISMATCH dist.execute vs engine: %s\n",
                   req.text.c_str());
    } else if (traced_) {
      dist_output_ += direct->size();
    }
  }

  for (const Query* leaf : out.plan->Leaves()) {
    if (leaf->op() == QueryOp::kAtomic || leaf->op() == QueryOp::kLdap) {
      TraceLeaf(*leaf, root, req.cls);
    }
  }
  log_.End(root, out.entries.size());
}

// Replays one atomic leaf layer by layer: the range scan with a no-op
// callback (store), record decode (store), dn reconstruction (core) and
// the filter (filter). Each store's range is replayed up to
// kLeafRecords records: per-record costs need no more, and a global leaf
// would otherwise take most of the run.
void TracedReplay::TraceLeaf(const Query& leaf, uint32_t parent, Cls cls) {
  const std::string& lo = leaf.base().HierKey();
  const std::string hi = leaf.scope() == Scope::kBase ? KeyExactEnd(lo)
                                                      : KeySubtreeEnd(lo);
  for (const EntrySource* src : LeafStores(s_, leaf)) {
    // A callback ends the scan at the cap by returning an error; `capped`
    // tells that apart from a real failure.
    bool capped = false;
    auto cap = [&](uint64_t n) {
      capped = n >= kLeafRecords;
      return capped ? Status::OutOfRange("leaf replay cap") : Status::OK();
    };
    uint64_t visited = 0;
    uint32_t id = Begin("store.scan", parent, cls);
    Status st = src->ScanRange(lo, hi,
                               [&](std::string_view) { return cap(++visited); });
    log_.End(id, visited);
    std::vector<std::string> records;
    if (st.ok() || capped) {
      uint64_t seen = 0;
      st = src->ScanRange(lo, hi, [&](std::string_view r) {
        Result<std::string_view> key = PeekEntryKey(r);
        if (!key.ok()) return key.status();
        if (InScope(leaf, *key)) records.emplace_back(r);
        return cap(++seen);
      });
    }
    if (!st.ok() && !capped) {
      ++mismatched_;
      std::fprintf(stderr, "perfbench: leaf scan failed: %s\n",
                   st.ToString().c_str());
      continue;
    }
    std::vector<Entry> entries;
    entries.reserve(records.size());
    id = Begin("store.decode", parent, cls);
    for (const std::string& r : records) {
      Result<Entry> e = DeserializeEntry(r);
      if (!e.ok()) {
        ++mismatched_;
        continue;
      }
      entries.push_back(e.TakeValue());
    }
    log_.End(id, records.size());
    std::vector<Result<Dn>> dns;
    dns.reserve(entries.size());
    id = Begin("core.dn_from_hierkey", parent, cls);
    for (const Entry& e : entries) dns.push_back(Dn::FromHierKey(e.HierKey()));
    log_.End(id, entries.size());
    for (size_t i = 0; i < dns.size(); ++i) {
      if (!dns[i].ok() || dns[i]->HierKey() != entries[i].HierKey()) {
        ++mismatched_;
      }
    }
    uint64_t matched = 0;
    id = Begin("filter.match", parent, cls);
    for (const Entry& e : entries) {
      const bool m = leaf.op() == QueryOp::kLdap ? leaf.ldap_filter()->Matches(e)
                                                 : leaf.filter().Matches(e);
      matched += m ? 1 : 0;
    }
    log_.End(id, entries.size());
    if (traced_) {
      leaf_scanned_ += visited;
      leaf_matched_ += matched;
    }
  }
}

// Applies a write batch op by op through the store's public calls — what
// Engine::ApplyUpdates does — so each op gets its own span.
UpdateResult TracedReplay::TracedWrite(const UpdateBatch& batch) {
  ++request_;
  DirectoryStore* store = s_->engine->mutable_store();
  uint64_t wal0 = 0, pages0 = 0;
  if (traced_) {
    wal0 = store->wal_records();
    pages0 = s_->engine->data_disk()->stats().page_writes;
  }
  const uint32_t root = Begin("write", 0, Cls::kWrite);
  UpdateResult res;
  for (const UpdateOp& op : batch.ops) {
    Status st;
    uint32_t id;
    switch (op.kind) {
      case UpdateOp::Kind::kAdd:
        id = Begin("store.add", root, Cls::kWrite);
        st = store->Add(op.entry);
        break;
      case UpdateOp::Kind::kPut:
        id = Begin("store.put", root, Cls::kWrite);
        st = store->Put(op.entry);
        break;
      default:
        id = Begin("store.remove", root, Cls::kWrite);
        st = store->Remove(op.dn);
        break;
    }
    log_.End(id, 1);
    if (traced_ && op.kind != UpdateOp::Kind::kRemove) {
      user_bytes_written_ += WriteLdif(std::vector<Entry>{op.entry}).size();
    }
    if (st.ok()) {
      ++res.applied;
    } else if (res.status.ok()) {
      res.status = st;
    }
    res.op_status.push_back(std::move(st));
  }
  const uint32_t id = Begin("engine.invalidate_caches", root, Cls::kWrite);
  s_->engine->InvalidateCaches();
  log_.End(id, 0);
  log_.End(root, batch.size());
  if (traced_) {
    const Span& w = log_.at(root);
    write_seconds_ += static_cast<double>(w.end_ns - w.start_ns) / 1e9;
    write_ops_ += res.applied;
    wal_records_ += store->wal_records() - wal0;
    data_pages_written_ +=
        s_->engine->data_disk()->stats().page_writes - pages0;
  }
  return res;
}

// One client's reads per second with tracing on (traced = 1) or off,
// from each shape's mean read time weighted by the shape's share of all
// reads. Weighting by shape keeps the rare, slow shapes (global scans)
// from swinging the figure with the luck of which reads fell untraced.
// Shapes without reads of both kinds are left out of both figures.
double TracedReplay::ReadQps(int traced) const {
  double weighted_s = 0, reads = 0;
  for (const auto& [kind, t] : shape_time_) {
    (void)kind;
    if (t.reads[0] == 0 || t.reads[1] == 0) continue;
    const double n = static_cast<double>(t.reads[0] + t.reads[1]);
    weighted_s += n * t.seconds[traced] / static_cast<double>(t.reads[traced]);
    reads += n;
  }
  return Ratio(reads, weighted_s);
}

Metrics TracedReplay::Finish(const std::string& spans_path,
                             uint64_t* attempted, uint64_t* failed,
                             uint64_t* mismatched) {
  Metrics m;
  const double q = static_cast<double>(std::max<uint64_t>(1, traced_queries_));
  for (int c = 0; c < kNumReadClasses; ++c) {
    const std::string cls = ClsName(static_cast<Cls>(c));
    m["engine.run_us." + cls] = {Median(log_.DurationsUs("engine.run", c)),
                                 "us"};
    m["exec.evaluate_us." + cls] = {Median(evaluate_us_[c]), "us"};
    m["dist.execute_us." + cls] = {Median(log_.DurationsUs("dist.execute", c)),
                                   "us"};
  }
  m["engine.overhead_us"] = {Median(overhead_us_), "us"};
  m["query.parse_us"] = {Median(log_.DurationsUs("query.parse")), "us"};
  m["query.rewrite_us"] = {Median(log_.DurationsUs("query.rewrite")), "us"};
  m["query.optimize_us"] = {Median(log_.DurationsUs("query.optimize")), "us"};
  m["store.scan_ns_per_record"] = {log_.NsPerItem("store.scan"), "ns"};
  m["store.decode_ns_per_record"] = {log_.NsPerItem("store.decode"), "ns"};
  m["core.dn_from_hierkey_ns"] = {log_.NsPerItem("core.dn_from_hierkey"),
                                  "ns"};
  m["filter.match_ns_per_record"] = {log_.NsPerItem("filter.match"), "ns"};
  for (int f = 0; f < 5; ++f) {
    m[std::string("exec.self_us.") + kFamilyNames[f]] = {exec_.self_us[f] / q,
                                                         "us"};
  }
  m["exec.sort_merge_passes"] = {
      static_cast<double>(exec_.sort_merge_passes) / q, "count"};
  m["exec.stack_spills"] = {static_cast<double>(exec_.stack_spills) / q,
                            "count"};
  m["exec.scan_useful_ratio"] = {
      Ratio(static_cast<double>(leaf_matched_),
            static_cast<double>(leaf_scanned_)),
      "ratio"};
  m["exec.cache_hit_ratio"] = {
      Ratio(static_cast<double>(exec_.cache_hits),
            static_cast<double>(exec_.cache_hits + exec_.cache_misses)),
      "ratio"};
  m["exec.cache_evictions"] = {
      Ratio(static_cast<double>(evictions_), static_cast<double>(reads_)),
      "count"};

  const double dq = static_cast<double>(std::max<uint64_t>(1, dist_queries_));
  m["dist.messages"] = {static_cast<double>(net_.messages) / dq, "count"};
  m["dist.records_shipped"] = {static_cast<double>(net_.records_shipped) / dq,
                               "count"};
  m["dist.bytes_shipped"] = {static_cast<double>(net_.bytes_shipped) / dq,
                             "B"};
  m["dist.servers_contacted"] = {
      static_cast<double>(net_.servers_contacted) / dq, "count"};
  m["dist.ship_useful_ratio"] = {
      Ratio(static_cast<double>(dist_output_),
            static_cast<double>(net_.records_shipped)),
      "ratio"};
  m["dist.retries"] = {static_cast<double>(net_.retries) / dq, "count"};
  m["dist.failovers"] = {static_cast<double>(net_.failovers) / dq, "count"};

  m["store.put_us"] = {Median(log_.DurationsUs("store.put")), "us"};
  m["store.remove_us"] = {Median(log_.DurationsUs("store.remove")), "us"};
  m["store.write_ops_s"] = {Ratio(static_cast<double>(write_ops_),
                                  write_seconds_),
                            "1/s"};
  DirectoryStore* store = s_->engine->mutable_store();
  m["store.segments"] = {
      store ? static_cast<double>(store->num_segments()) : 0, "count"};
  m["store.memtable_size"] = {
      store ? static_cast<double>(store->memtable_size()) : 0, "count"};
  m["store.wal_records"] = {Ratio(static_cast<double>(wal_records_),
                                  static_cast<double>(write_ops_)),
                            "1/op"};
  m["store.write_amp"] = {
      Ratio(static_cast<double>(data_pages_written_) *
                static_cast<double>(s_->engine->scratch()->page_size()),
            static_cast<double>(user_bytes_written_)),
      "ratio"};

  const double iq =
      static_cast<double>(std::max<uint64_t>(1, io_prefix_queries_));
  m["storage.data_page_reads"] = {
      static_cast<double>(io_prefix_.data_reads) / iq, "pages"};
  m["storage.data_page_writes"] = {
      static_cast<double>(io_prefix_.data_writes) / iq, "pages"};
  m["storage.scratch_page_reads"] = {
      static_cast<double>(io_prefix_.scratch_reads) / iq, "pages"};
  m["storage.scratch_page_writes"] = {
      static_cast<double>(io_prefix_.scratch_writes) / iq, "pages"};

  const double traced_qps = ReadQps(1);
  const double untraced_qps = ReadQps(0);
  m["trace.traced_read_qps"] = {traced_qps, "1/s"};
  m["trace.untraced_read_qps"] = {untraced_qps, "1/s"};
  m["trace.overhead_ratio"] = {Ratio(untraced_qps, traced_qps), "ratio"};

  log_.Write(spans_path);
  if (model_ != nullptr) {
    s_->engine->Drain();
    store->WaitForMaintenance();
    mismatched_ += CheckStoreAgainstModel(s_->engine->store(), *model_);
  } else {
    mismatched_ += CheckSamples(samples_, *s_->dir);
  }
  *attempted = attempted_;
  *failed = failed_;
  *mismatched = mismatched_;
  return m;
}

}  // namespace

Metrics RunTraced(Setup* setup, Workload w, uint64_t seed, double seconds,
                  const std::string& spans_path, uint64_t* attempted,
                  uint64_t* failed, uint64_t* mismatched) {
  TracedReplay replay(setup, w, seed);
  OperandCache* cache = setup->engine->cache();
  const uint64_t evictions0 = cache ? cache->stats().evictions : 0;
  // Traced and untraced reads interleave, so a drift of the machine's
  // speed moves both alike: their throughput ratio is the cost of
  // recording spans and boundary counters.
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < end) replay.Round();
  replay.SetCacheEvictions((cache ? cache->stats().evictions : 0) -
                           evictions0);
  return replay.Finish(spans_path, attempted, failed, mismatched);
}

}  // namespace perfbench
