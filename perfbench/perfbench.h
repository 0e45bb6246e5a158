// Shared declarations of the ndq benchmark (perfbench).
//
// The benchmark drives ndq::Engine sessions from one process. Every
// workload is a closed loop: a client session sends its next request only
// after the previous reply arrived. Inputs come from the --seed argument
// alone, so a seed replays the same directory and the same request
// streams on every run.

#ifndef NDQ_PERFBENCH_PERFBENCH_H_
#define NDQ_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/instance.h"
#include "engine/engine.h"

namespace perfbench {

/// Request classes. The four read classes follow the paper's operator
/// levels; kWrite is an Apply batch of the read-write workload.
enum class Cls { kPoint = 0, kScan, kJoin, kGlobal, kWrite };
inline constexpr int kNumReadClasses = 4;
inline constexpr int kNumClasses = 5;
const char* ClsName(Cls cls);

struct Request {
  Cls cls = Cls::kPoint;
  const char* kind = "";  // the query shape within the class
  std::string text;
};

/// Size of a DIF directory (gen/dif_gen.h): orgs x subdomains/org x
/// subscribers/subdomain; everything else keeps the generator defaults.
struct DirShape {
  int orgs = 0;
  int subs_per_org = 0;
  int subscribers = 0;

  int subdomains() const { return orgs * subs_per_org; }
  /// callAppearance entries (3 QHPs x 2 CAs per subscriber).
  int call_appearances() const { return subdomains() * subscribers * 6; }
};

/// One client's request stream: 30% point, 40% scan, 25% join, 5% global.
/// Requests come in shuffled blocks of 20 that hold every shape in its
/// exact share, so any stretch of the stream has the mix's proportions.
/// With `skewed`, 80% of keyed picks go to a hot set of one subdomain per
/// org (a sixteenth of the subdomains at 16 subdomains per org). 3 of 8
/// scans filter on a CANumber no other request of any client uses, so they
/// always miss the operand cache.
class ReadMix {
 public:
  ReadMix(const DirShape& shape, uint64_t seed, int client, int num_clients,
          bool skewed);
  Request Next();

 private:
  enum Shape {
    kPoint,
    kScanMiss,
    kScanSub,
    kScanOrg,
    kJoinC,
    kJoinDc,
    kJoinAgg,
    kJoinQos,
    kGlobal
  };
  Request Make(Shape shape);
  int PickSubdomain();
  std::string SubDn(int subdomain) const;
  std::string OrgDn(int org) const;

  DirShape shape_;
  bool skewed_;
  int client_;
  int num_clients_;
  std::mt19937_64 rng_;
  std::vector<int> hot_;       // hot subdomains
  std::vector<int> ca_order_;  // CA serials, shared order across clients
  size_t miss_scans_ = 0;
  std::vector<Shape> block_;
  size_t next_ = 0;
};

/// Per-class latency samples and failure counts of one measured window.
struct ClassStats {
  std::vector<double> latency_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// One request's result kept for the correctness check.
struct Sample {
  std::string text;
  std::string bytes;  // concatenated SerializeEntry of the result
};

/// A built workload: the generated directory and the engine serving it.
struct Setup {
  DirShape shape;
  std::unique_ptr<ndq::DirectoryInstance> dir;
  std::unique_ptr<ndq::Engine> engine;
  /// Bytes of the live entries written as LDIF.
  double ldif_bytes = 0;
  /// Data-disk bytes held (every replica in a fleet; WAL included for a
  /// durable store).
  double disk_bytes = 0;
  /// Pages of the store itself: one replica per shard in a fleet, the WAL
  /// left out.
  double store_pages = 0;
};

enum class Workload { kLocalRead, kFleetRead, kLocalReadWrite };
bool ParseWorkload(const std::string& name, Workload* out);
/// Reader sessions of a workload: 4 on the read workloads, 2 beside the
/// writer on kLocalReadWrite. A third reader there made the read-write
/// figures spread about half again as wide from run to run.
int ReaderCount(Workload w);

/// Generates the directory and builds (kLocalRead, kFleetRead) or loads
/// through Session::Apply (kLocalReadWrite) the engine serving it.
Setup BuildSetup(Workload w, uint64_t seed);
/// Fills `ldif_bytes`, `disk_bytes` and `store_pages` of a set-up whose
/// live entries are `live`.
void MeasureSpace(const ndq::DirectoryInstance& live, Setup* setup);

/// Serializes `entries` the way the store lays them out, for byte-exact
/// comparison.
std::string SerializeAll(const std::vector<ndq::Entry>& entries);
std::string SerializeAll(const std::vector<const ndq::Entry*>& entries);

/// Evaluates each sample with query/reference over `dir` and compares the
/// bytes. Returns the number of mismatches and prints each one to stderr.
uint64_t CheckSamples(const std::vector<Sample>& samples,
                      const ndq::DirectoryInstance& dir);

/// Mutations of the read-write workload. Batch i re-adds the leaves batch
/// i-1 removed, rewrites `k` QHP priorities and `k` callAppearance
/// timeouts, then removes `k` callAppearance leaves. Every op is built
/// from `model`, the acknowledged state, so the stream never asks for an
/// op that must fail.
class WriteStream {
 public:
  WriteStream(const ndq::DirectoryInstance& initial, uint64_t seed, size_t k);
  ndq::UpdateBatch Next(const ndq::DirectoryInstance& model);

 private:
  size_t k_;
  uint64_t batch_ = 0;
  std::vector<ndq::Dn> qhps_;
  std::vector<ndq::Dn> cas_;
  std::vector<ndq::Entry> removed_;
};

/// Applies the acknowledged ops of `batch` (per `result.op_status`) to
/// `model`.
void ApplyToModel(const ndq::UpdateBatch& batch,
                  const ndq::UpdateResult& result,
                  ndq::DirectoryInstance* model);

/// Scans the whole store and compares it record by record with `model`.
/// Returns the number of differing entries (printing the first few).
uint64_t CheckStoreAgainstModel(const ndq::EntrySource& store,
                                const ndq::DirectoryInstance& model);

/// Result of one measured window of a closed-loop run.
struct Window {
  ClassStats cls[kNumClasses];
  /// Read latencies by query shape (Request::kind), for the report.
  std::map<std::string, std::vector<double>> kind_us;
  double seconds = 0;
  /// Data-disk pages held right after each write batch, summed, and the
  /// number of batches.
  double data_pages_sum = 0;
  uint64_t write_batches = 0;
};

/// Runs `readers` read sessions (one ReadMix each) and, for
/// kLocalReadWrite, one writer session, closed loop and without a pause:
/// `warm` seconds of warm-up, then `seconds` measured and split into
/// `num_windows` equal windows. A request counts in the window in which
/// it completes; requests completing in the warm-up or after the end
/// count nowhere. Reader results of every `sample_every`-th request go to
/// `samples` for the correctness check (0 keeps none). The writer keeps
/// `model` in step with every acknowledged write. `busy_cores` receives
/// the process CPU seconds per measured second.
std::vector<Window> RunClosedLoop(Setup* setup, Workload w, double warm,
                                  double seconds, int num_windows, int readers,
                                  size_t sample_every,
                                  std::vector<ReadMix>* mixes,
                                  WriteStream* writes,
                                  ndq::DirectoryInstance* model,
                                  std::vector<Sample>* samples,
                                  double* busy_cores);

/// Adds `from`'s latencies, counts and seconds to `into`.
void Merge(const Window& from, Window* into);

/// A metric as printed in the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Traced run: replays the streams from one client, records spans around
/// each public call into a layer, and returns the per-layer metrics.
/// Spans are written to `spans_path` (JSON lines) before returning.
Metrics RunTraced(Setup* setup, Workload w, uint64_t seed, double seconds,
                  const std::string& spans_path, uint64_t* attempted,
                  uint64_t* failed, uint64_t* mismatched);

double Percentile(std::vector<double> values, double q);
double PeakRssMb();

}  // namespace perfbench

#endif  // NDQ_PERFBENCH_PERFBENCH_H_
