// Workload set-up, request streams, the closed-loop runner and the
// correctness checks of the benchmark.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/ldif.h"
#include "dist/topology.h"
#include "gen/dif_gen.h"
#include "gen/paper_data.h"
#include "perfbench.h"
#include "query/parser.h"
#include "query/reference.h"
#include "storage/serde.h"

namespace perfbench {

using namespace ndq;
using Clock = std::chrono::steady_clock;

const char* ClsName(Cls cls) {
  switch (cls) {
    case Cls::kPoint:
      return "point";
    case Cls::kScan:
      return "scan";
    case Cls::kJoin:
      return "join";
    case Cls::kGlobal:
      return "global";
    case Cls::kWrite:
      return "write";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "local-read") {
    *out = Workload::kLocalRead;
  } else if (name == "fleet-read") {
    *out = Workload::kFleetRead;
  } else if (name == "local-read-write") {
    *out = Workload::kLocalReadWrite;
  } else {
    return false;
  }
  return true;
}

int ReaderCount(Workload w) { return w == Workload::kLocalReadWrite ? 2 : 4; }

// ---------------------------------------------------------------------------
// Request streams

ReadMix::ReadMix(const DirShape& shape, uint64_t seed, int client,
                 int num_clients, bool skewed)
    : shape_(shape),
      skewed_(skewed),
      client_(client),
      num_clients_(num_clients),
      rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(client) + 1) {
  // The hot set and the CA order depend on the seed only, so every client
  // shares them. One hot subdomain per org keeps the load on a fleet's
  // shards even for every seed.
  std::mt19937_64 shared(seed);
  for (int o = 0; o < shape.orgs; ++o) {
    hot_.push_back(o * shape.subs_per_org +
                   static_cast<int>(shared() % shape.subs_per_org));
  }
  ca_order_.resize(static_cast<size_t>(shape.call_appearances()));
  for (size_t i = 0; i < ca_order_.size(); ++i) {
    ca_order_[i] = static_cast<int>(i);
  }
  std::shuffle(ca_order_.begin(), ca_order_.end(), shared);
}

int ReadMix::PickSubdomain() {
  if (skewed_ && rng_() % 100 < 80) return hot_[rng_() % hot_.size()];
  return static_cast<int>(rng_() % static_cast<uint64_t>(shape_.subdomains()));
}

// dif_gen numbers subdomains globally: subdomain g belongs to org
// g / subs_per_org.
std::string ReadMix::SubDn(int g) const {
  return "dc=sub" + std::to_string(g) + ", " + OrgDn(g / shape_.subs_per_org);
}

std::string ReadMix::OrgDn(int org) const {
  return "dc=org" + std::to_string(org) + ", dc=com";
}

Request ReadMix::Next() {
  if (next_ == block_.size()) {
    // 6 point, 8 scan, 5 join, 1 global. The shares within a class put
    // each class median near the middle of one shape's latency cluster,
    // not in a cluster's tail or on the edge between two, where it would
    // jump from run to run: scans are 3 cache-missing, 3 subdomain and 2
    // org scans; joins are L1 c, L1 dc, L2 and two L3. On the local
    // engine the medians then fall on the org scan's and the dc join's
    // own medians.
    block_ = {kPoint,   kPoint,   kPoint,   kPoint,    kPoint,
              kPoint,   kScanMiss, kScanMiss, kScanMiss, kScanSub,
              kScanSub, kScanSub, kScanOrg, kScanOrg,  kJoinC,
              kJoinDc,  kJoinAgg, kJoinQos, kJoinQos,  kGlobal};
    std::shuffle(block_.begin(), block_.end(), rng_);
    next_ = 0;
  }
  return Make(block_[next_++]);
}

Request ReadMix::Make(Shape shape) {
  switch (shape) {
    case kPoint: {
      const int g = PickSubdomain();
      const int u = static_cast<int>(rng_() % shape_.subscribers);
      return {Cls::kPoint, "point",
              "(uid=user" + std::to_string(u) + ", ou=userProfiles, " +
                  SubDn(g) + " ? base ? objectClass=TOPSSubscriber)"};
    }
    case kScanMiss: {
      // A CANumber no other request asks for: always an operand-cache
      // miss. dif_gen gives each subdomain subscribers*6 consecutive CA
      // serials, numbered 973<1000000 + serial>.
      const size_t i = (miss_scans_++ * static_cast<size_t>(num_clients_) +
                        static_cast<size_t>(client_)) %
                       ca_order_.size();
      const int serial = ca_order_[i];
      const int g = serial / (shape_.subscribers * 6);
      return {Cls::kScan, "scan.miss",
              "(" + SubDn(g) + " ? sub ? CANumber=\"973" +
                  std::to_string(1000000 + serial) + "\")"};
    }
    case kScanSub:
      return {Cls::kScan, "scan.sub",
              "(" + SubDn(PickSubdomain()) + " ? sub ? objectClass=QHP)"};
    case kScanOrg:
      return {Cls::kScan, "scan.org",
              "(" + OrgDn(PickSubdomain() / shape_.subs_per_org) +
                  " ? sub ? objectClass=SLAPolicyRules)"};
    case kGlobal:
      return {Cls::kGlobal, "global",
              "(dc=com ? sub ? objectClass=SLADSAction)"};
    default:
      break;
  }
  const std::string o = OrgDn(PickSubdomain() / shape_.subs_per_org);
  auto leaf = [&](const std::string& filter) {
    return "(" + o + " ? sub ? " + filter + ")";
  };
  switch (shape) {
    case kJoinC:  // L1: subscribers with a QHP child
      return {Cls::kJoin, "join.c",
              "(c " + leaf("objectClass=TOPSSubscriber") + " " +
                  leaf("objectClass=QHP") + ")"};
    case kJoinDc:  // L1: subdomains with a QHP below, no dcObject between
      return {Cls::kJoin, "join.dc",
              "(dc " + leaf("objectClass=dcObject") + " " +
                  leaf("objectClass=QHP") + " " +
                  leaf("objectClass=dcObject") + ")"};
    case kJoinAgg:  // L2: structural aggregate
      return {Cls::kJoin, "join.agg",
              "(c " + leaf("objectClass=TOPSSubscriber") + " " +
                  leaf("objectClass=QHP") + " count($2)>=3)"};
    default:  // L3: the Sec. 7 QoS query, scoped to one org
      return {Cls::kJoin, "join.qos",
              "(dv " + leaf("objectClass=SLADSAction") + " (g (vd " +
                  leaf("objectClass=SLAPolicyRules") + " (& " +
                  leaf("sourcePort=25") + " " +
                  leaf("objectClass=trafficProfile") +
                  ") SLATPRef) min(SLARulePriority)="
                  "min(min(SLARulePriority))) SLADSActRef)"};
  }
}

WriteStream::WriteStream(const DirectoryInstance& initial, uint64_t seed,
                         size_t k)
    : k_(k) {
  for (const auto& [key, entry] : initial) {
    (void)key;
    if (entry.HasClass("QHP")) qhps_.push_back(entry.dn());
    if (entry.HasClass("callAppearance")) cas_.push_back(entry.dn());
  }
  std::mt19937_64 rng(seed ^ 0x5bd1e995ULL);
  std::shuffle(qhps_.begin(), qhps_.end(), rng);
  std::shuffle(cas_.begin(), cas_.end(), rng);
}

namespace {

Entry WithInt(const Entry& e, const std::string& attr, int64_t v) {
  Entry out = e;
  out.RemoveAttribute(attr);
  out.AddInt(attr, v);
  return out;
}

}  // namespace

UpdateBatch WriteStream::Next(const DirectoryInstance& model) {
  UpdateBatch b;
  for (Entry& e : removed_) {
    if (model.Find(e.dn()) == nullptr) b.Add(std::move(e));
  }
  removed_.clear();
  const uint64_t i = batch_++;
  const size_t nq = qhps_.size();
  const size_t nc = cas_.size();
  for (size_t j = 0; j < k_; ++j) {
    if (const Entry* e = model.Find(qhps_[(i * k_ + j) % nq])) {
      b.Put(WithInt(*e, "priority", 1 + static_cast<int64_t>((i + j) % 9)));
    }
  }
  // The rewritten CAs sit half the ring away from the removed ones, so a
  // batch never rewrites a leaf it removes.
  for (size_t j = 0; j < k_; ++j) {
    if (const Entry* e = model.Find(cas_[(i * k_ + j + nc / 2) % nc])) {
      b.Put(WithInt(*e, "timeOut", 10 + static_cast<int64_t>((i * 7 + j) % 30)));
    }
  }
  for (size_t j = 0; j < k_; ++j) {
    const Dn& dn = cas_[(i * k_ + j) % nc];
    if (const Entry* e = model.Find(dn)) {
      removed_.push_back(*e);
      b.Remove(dn);
    }
  }
  return b;
}

void ApplyToModel(const UpdateBatch& batch, const UpdateResult& result,
                  DirectoryInstance* model) {
  for (size_t i = 0; i < batch.ops.size() && i < result.op_status.size();
       ++i) {
    if (!result.op_status[i].ok()) continue;
    const UpdateOp& op = batch.ops[i];
    switch (op.kind) {
      case UpdateOp::Kind::kAdd:
        (void)model->Add(op.entry);
        break;
      case UpdateOp::Kind::kPut:
        (void)model->Put(op.entry);
        break;
      case UpdateOp::Kind::kRemove:
        (void)model->Remove(op.dn);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Set-up

namespace {

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

TopologyConfig FleetTopology(const DirShape& shape) {
  // The E21 layout: a root shard plus one shard per org, 2 replicas each.
  std::string text = "replicas 2\nshard root dc=com\n";
  for (int o = 0; o < shape.orgs; ++o) {
    text += "shard org" + std::to_string(o) + " dc=org" + std::to_string(o) +
            ", dc=com\n";
  }
  Result<TopologyConfig> topo = TopologyConfig::Parse(text);
  if (!topo.ok()) Die("topology", topo.status());
  return topo.TakeValue();
}

// The directory each workload serves.
DirShape ShapeOf(Workload w) {
  // local-read and fleet-read serve the same 109,585-entry directory
  // (2,411 store pages, under the operand cache's 4,096 pages). The
  // read-write directory is small because loading it through Apply costs
  // time proportional to the store's size for every put.
  if (w == Workload::kLocalReadWrite) return DirShape{4, 8, 10};
  return DirShape{16, 16, 40};
}

double DiskBytes(Disk* disk) {
  return static_cast<double>(disk->live_pages()) *
         static_cast<double>(disk->page_size());
}

}  // namespace

Setup BuildSetup(Workload w, uint64_t seed) {
  Setup s;
  s.shape = ShapeOf(w);
  gen::DifOptions dif;
  dif.seed = static_cast<uint32_t>(seed);
  dif.num_orgs = s.shape.orgs;
  dif.subdomains_per_org = s.shape.subs_per_org;
  dif.subscribers_per_domain = s.shape.subscribers;
  s.dir = std::make_unique<DirectoryInstance>(gen::GenerateDif(dif));

  EngineOptions opt;
  opt.disk_backend = "sim";
  opt.exec.parallelism = 1;  // the client sessions are the only threads
  switch (w) {
    case Workload::kLocalRead:
      opt.backend = EngineBackend::kLocal;
      s.engine = std::make_unique<Engine>(*s.dir, opt);
      break;
    case Workload::kFleetRead:
      opt.backend = EngineBackend::kDistributed;
      opt.topology = FleetTopology(s.shape);
      s.engine = std::make_unique<Engine>(*s.dir, opt);
      break;
    case Workload::kLocalReadWrite: {
      s.engine = std::make_unique<Engine>(gen::PaperSchema(), opt);
      Status durable = s.engine->mutable_store()->EnableDurability();
      if (!durable.ok()) Die("EnableDurability", durable);
      Session session = s.engine->OpenSession();
      UpdateBatch batch;
      auto apply = [&] {
        UpdateResult res = session.Apply(batch);
        if (!res.ok()) Die("load through Apply", res.status);
        batch.ops.clear();
      };
      for (const auto& [key, entry] : *s.dir) {
        (void)key;
        batch.Put(entry);
        if (batch.size() == 256) apply();
      }
      if (!batch.empty()) apply();
      break;
    }
  }
  if (!s.engine->init_status().ok()) Die("engine", s.engine->init_status());
  // Pin the configuration the benchmark defines, whatever the environment.
  s.engine->SetOptimize(true);
  return s;
}

void MeasureSpace(const DirectoryInstance& live, Setup* s) {
  s->ldif_bytes = static_cast<double>(WriteLdif(live).size());
  s->disk_bytes = 0;
  s->store_pages = 0;
  if (DistributedDirectory* fleet = s->engine->fleet()) {
    for (DirectoryServer* server : fleet->servers()) {
      s->disk_bytes += DiskBytes(server->disk());
    }
    for (const auto& shard : fleet->shards()) {
      s->store_pages +=
          static_cast<double>(shard->replica(0)->store().num_pages());
    }
  } else {
    Disk* disk = s->engine->data_disk();
    const DirectoryStore* store = s->engine->mutable_store();
    s->disk_bytes = DiskBytes(disk);
    s->store_pages = static_cast<double>(disk->live_pages() -
                                         (store ? store->wal_pages() : 0));
  }
}

// ---------------------------------------------------------------------------
// Correctness checks

std::string SerializeAll(const std::vector<Entry>& entries) {
  std::string out;
  for (const Entry& e : entries) SerializeEntry(e, &out);
  return out;
}

std::string SerializeAll(const std::vector<const Entry*>& entries) {
  std::string out;
  for (const Entry* e : entries) SerializeEntry(*e, &out);
  return out;
}

uint64_t CheckSamples(const std::vector<Sample>& samples,
                      const DirectoryInstance& dir) {
  std::map<std::string, std::string> expected;
  uint64_t bad = 0;
  for (const Sample& s : samples) {
    auto it = expected.find(s.text);
    if (it == expected.end()) {
      std::string bytes = "<reference failed>";
      Result<QueryPtr> q = ParseQuery(s.text);
      if (q.ok()) {
        Result<std::vector<const Entry*>> ref = EvaluateReference(**q, dir);
        if (ref.ok()) bytes = SerializeAll(*ref);
      }
      it = expected.emplace(s.text, std::move(bytes)).first;
    }
    if (it->second != s.bytes) {
      ++bad;
      std::fprintf(stderr,
                   "perfbench: MISMATCH %s: %zu result bytes, reference %zu\n",
                   s.text.c_str(), s.bytes.size(), it->second.size());
    }
  }
  return bad;
}

uint64_t CheckStoreAgainstModel(const EntrySource& store,
                                const DirectoryInstance& model) {
  std::vector<std::string> records;
  Status s = store.ScanRange("", "", [&](std::string_view r) {
    records.emplace_back(r);
    return Status::OK();
  });
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: store scan failed: %s\n",
                 s.ToString().c_str());
    return model.size() + 1;
  }
  uint64_t bad = 0;
  auto it = model.begin();
  size_t i = 0;
  auto report = [&](const std::string& what) {
    if (++bad <= 5) std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
  };
  while (it != model.end() || i < records.size()) {
    if (i == records.size()) {
      report("missing from store: " + it->second.dn().ToString());
      ++it;
      continue;
    }
    Result<std::string_view> key = PeekEntryKey(records[i]);
    if (!key.ok()) {
      report("undecodable store record");
      ++i;
      continue;
    }
    if (it == model.end() || *key < std::string_view(it->first)) {
      report("store holds an entry the model does not");
      ++i;
      continue;
    }
    if (std::string_view(it->first) < *key) {
      report("missing from store: " + it->second.dn().ToString());
      ++it;
      continue;
    }
    std::string want;
    SerializeEntry(it->second, &want);
    if (want != records[i]) report("differs: " + it->second.dn().ToString());
    ++it;
    ++i;
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Closed-loop runner

namespace {

double ProcessCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace

std::vector<Window> RunClosedLoop(Setup* setup, Workload w, double warm,
                                  double seconds, int num_windows, int readers,
                                  size_t sample_every,
                                  std::vector<ReadMix>* mixes,
                                  WriteStream* writes, DirectoryInstance* model,
                                  std::vector<Sample>* samples,
                                  double* busy_cores) {
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  const Clock::time_point m0 = after(Clock::now(), warm);
  const Clock::time_point m1 = after(m0, seconds);
  const double window_s = seconds / num_windows;
  // The window a request completing at `t` belongs to; -1 outside the
  // measured time.
  auto window_of = [&](Clock::time_point t) {
    if (t < m0 || t >= m1) return -1;
    const double s = std::chrono::duration<double>(t - m0).count();
    return std::min(num_windows - 1, static_cast<int>(s / window_s));
  };
  // Per thread: one partial Window per measured window, merged once the
  // threads have all ended, and the samples it kept.
  const size_t num_threads = static_cast<size_t>(readers) + 1;
  std::vector<std::vector<Window>> per(
      num_threads, std::vector<Window>(static_cast<size_t>(num_windows)));
  std::vector<std::vector<Sample>> kept(num_threads);
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      std::vector<Window>& mine = per[static_cast<size_t>(r)];
      ReadMix& mix = (*mixes)[static_cast<size_t>(r)];
      Session session = setup->engine->OpenSession();
      for (size_t n = 0; Clock::now() < m1; ++n) {
        Request req = mix.Next();
        const Clock::time_point start = Clock::now();
        QueryOutcome out = session.Run(req.text);
        const Clock::time_point end = Clock::now();
        const bool ok = out.ok() && out.warnings.empty();
        if (ok && sample_every != 0 && n % sample_every == 0) {
          kept[static_cast<size_t>(r)].push_back(
              {req.text, SerializeAll(out.entries)});
        }
        const int i = window_of(end);
        if (i < 0) continue;
        Window& win = mine[static_cast<size_t>(i)];
        ClassStats& cs = win.cls[static_cast<int>(req.cls)];
        ++cs.attempted;
        if (!ok) {
          ++cs.failed;
          continue;
        }
        const double us =
            std::chrono::duration<double, std::micro>(end - start).count();
        cs.latency_us.push_back(us);
        win.kind_us[req.kind].push_back(us);
      }
    });
  }
  if (w == Workload::kLocalReadWrite) {
    threads.emplace_back([&] {
      std::vector<Window>& mine = per.back();
      const Disk* disk = setup->engine->data_disk();
      Session session = setup->engine->OpenSession();
      while (Clock::now() < m1) {
        UpdateBatch batch = writes->Next(*model);
        const Clock::time_point start = Clock::now();
        UpdateResult res = session.Apply(batch);
        const Clock::time_point end = Clock::now();
        ApplyToModel(batch, res, model);
        const int i = window_of(end);
        if (i < 0) continue;
        Window& win = mine[static_cast<size_t>(i)];
        ClassStats& cs = win.cls[static_cast<int>(Cls::kWrite)];
        cs.attempted += batch.size();
        cs.failed += batch.size() - res.applied;
        cs.latency_us.push_back(
            std::chrono::duration<double, std::micro>(end - start).count());
        win.data_pages_sum += static_cast<double>(disk->live_pages());
        ++win.write_batches;
      }
    });
  }
  // The process CPU time over the measured stretch, for the report.
  std::this_thread::sleep_until(m0);
  const double cpu0 = ProcessCpuSeconds();
  std::this_thread::sleep_until(m1);
  *busy_cores = (ProcessCpuSeconds() - cpu0) / seconds;
  for (std::thread& t : threads) t.join();
  std::vector<Window> windows(static_cast<size_t>(num_windows));
  for (size_t i = 0; i < windows.size(); ++i) {
    windows[i].seconds = window_s;
    for (const std::vector<Window>& mine : per) Merge(mine[i], &windows[i]);
  }
  for (const std::vector<Sample>& k : kept) {
    samples->insert(samples->end(), k.begin(), k.end());
  }
  return windows;
}

void Merge(const Window& from, Window* into) {
  for (int c = 0; c < kNumClasses; ++c) {
    ClassStats& dst = into->cls[c];
    dst.attempted += from.cls[c].attempted;
    dst.failed += from.cls[c].failed;
    dst.latency_us.insert(dst.latency_us.end(), from.cls[c].latency_us.begin(),
                          from.cls[c].latency_us.end());
  }
  for (const auto& [kind, us] : from.kind_us) {
    auto& dst = into->kind_us[kind];
    dst.insert(dst.end(), us.begin(), us.end());
  }
  into->seconds += from.seconds;
  into->data_pages_sum += from.data_pages_sum;
  into->write_batches += from.write_batches;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
