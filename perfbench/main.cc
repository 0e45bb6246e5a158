// ndq_perfbench: the repository's benchmark program.
//
//   ndq_perfbench --workload <local-read|fleet-read|local-read-write>
//                 --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// --trace 0 measures the end-to-end metrics: set-up time, closed-loop
// read throughput and per-class latency, memory and space. --trace 1 is a
// separate run that replays the streams from one client with spans
// around each layer call and reports the per-layer metrics. Either way
// the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any output mismatch makes the run exit with status 1.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  Workload workload = Workload::kLocalRead;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: ndq_perfbench --workload "
               "<local-read|fleet-read|local-read-write> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(v, &a.workload)) Usage("unknown workload");
      a.workload_name = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 120) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// The environment and sizes the numbers were taken with, printed before
// the result.
void PrintEnvironment(const Args& a, const Setup& s) {
  const char* build = NDQ_PERFBENCH_BUILD_TYPE;
  const size_t page = s.engine->scratch()->page_size();
  std::printf(
      "env {\"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
      "\"page_size\": %zu, \"disk_backend\": \"sim\", "
      "\"simulated_latency_us\": %u, \"workload\": %s, \"seed\": %" PRIu64
      ", \"entries\": %zu, \"store_pages\": %.0f, "
      "\"data_disk_pages\": %.0f, \"operand_cache_pages\": %zu, "
      "\"clients\": %s, \"loop\": \"closed\"}\n",
      std::thread::hardware_concurrency(), Json(build).c_str(),
      Json(NDQ_PERFBENCH_COMPILER).c_str(), page,
      s.engine->scratch()->transfer_latency_micros(),
      Json(a.workload_name).c_str(), a.seed, s.dir->size(), s.store_pages,
      s.disk_bytes / static_cast<double>(page),
      s.engine->options().cache_capacity_pages,
      Json(std::to_string(ReaderCount(a.workload)) + " readers" +
           (a.workload == Workload::kLocalReadWrite ? " + 1 writer" : ""))
          .c_str());
  if (std::strcmp(build, "Release") != 0 &&
      std::strcmp(build, "RelWithDebInfo") != 0) {
    std::printf("WARNING: %s build; timings are not comparable\n", build);
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += first ? "" : ", ";
    out += Json(name) + ": {\"value\": " + value + ", \"unit\": " +
           Json(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

constexpr int kSubWindows = 20;

double ReadsOk(const Window& w) {
  double n = 0;
  for (int c = 0; c < kNumReadClasses; ++c) {
    n += static_cast<double>(w.cls[c].attempted - w.cls[c].failed);
  }
  return n;
}

// Clock ticks the hypervisor took from this machine's CPUs (the steal
// column of /proc/stat), for the report: a run with much steal was
// disturbed from outside.
double StealJiffies() {
  FILE* f = std::fopen("/proc/stat", "r");
  unsigned long long v[8] = {};
  if (f) {
    (void)std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
  }
  return static_cast<double>(v[7]);
}

// Set-up repeats this many times; setup_s is the median.
constexpr int kSetupRepeats = 3;
// Results of every this-many-th request per client go to the reference
// check.
constexpr size_t kSampleEvery = 97;

int RunUntraced(const Args& a) {
  std::vector<double> setup_s;
  Setup s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s = Setup();
    const Clock::time_point t0 = Clock::now();
    s = BuildSetup(a.workload, a.seed);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  MeasureSpace(*s.dir, &s);
  PrintEnvironment(a, s);
  std::printf("setup runs (s):");
  for (double t : setup_s) std::printf(" %.3f", t);
  std::printf("\n");

  const bool rw = a.workload == Workload::kLocalReadWrite;
  const int readers = ReaderCount(a.workload);
  std::vector<ReadMix> mixes;
  for (int c = 0; c < readers; ++c) {
    mixes.emplace_back(s.shape, a.seed, c, readers, /*skewed=*/!rw);
  }
  std::unique_ptr<ndq::DirectoryInstance> model;
  std::unique_ptr<WriteStream> writes;
  if (rw) {
    model = std::make_unique<ndq::DirectoryInstance>(*s.dir);
    writes = std::make_unique<WriteStream>(*s.dir, a.seed, 4);
  }
  // The clients run without a pause from the warm-up, which fills the
  // operand cache and the allocator, to the end. Rates and percentiles
  // pool the whole measured time; its kSubWindows equal windows are
  // printed one line each, to show how the machine's speed moved.
  const double warm = std::min(2.0, a.seconds / 5);
  std::vector<Sample> samples;
  double busy_cores = 0;
  const double steal0 = StealJiffies();
  const std::vector<Window> windows = RunClosedLoop(
      &s, a.workload, warm, a.seconds, kSubWindows, readers,
      rw ? 0 : kSampleEvery, &mixes, writes.get(), model.get(), &samples,
      &busy_cores);
  const double steal_share =
      (StealJiffies() - steal0) /
      (static_cast<double>(sysconf(_SC_CLK_TCK)) * (warm + a.seconds) *
       static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  Window win;
  for (const Window& w : windows) Merge(w, &win);
  s.engine->Drain();
  // With a writer, space is the data-disk bytes held after each batch,
  // averaged over the measured batches, over the LDIF bytes of the
  // acknowledged entries. A run spans about two flush-and-compact cycles,
  // so the memtable, unmerged segments and the WAL between checkpoints
  // all show in it.
  if (rw) MeasureSpace(*model, &s);
  double space_amp = s.disk_bytes / s.ldif_bytes;
  if (rw && win.write_batches > 0) {
    const double page = static_cast<double>(s.engine->data_disk()->page_size());
    space_amp = win.data_pages_sum / static_cast<double>(win.write_batches) *
                page / s.ldif_bytes;
  }

  uint64_t mismatched = 0;
  if (rw) {
    s.engine->mutable_store()->WaitForMaintenance();
    mismatched = CheckStoreAgainstModel(s.engine->store(), *model);
  } else {
    mismatched = CheckSamples(samples, *s.dir);
  }

  Metrics m;
  uint64_t attempted = 0, failed = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    attempted += win.cls[c].attempted;
    failed += win.cls[c].failed;
  }
  failed += mismatched;
  std::sort(setup_s.begin(), setup_s.end());
  m["setup_s"] = {setup_s[setup_s.size() / 2], "s"};
  m["read_qps"] = {ReadsOk(win) / win.seconds, "1/s"};
  for (Cls c : {Cls::kPoint, Cls::kScan, Cls::kJoin, Cls::kGlobal}) {
    const auto& lat = win.cls[static_cast<int>(c)].latency_us;
    m[std::string(ClsName(c)) + "_p50_us"] = {Percentile(lat, 0.5), "us"};
  }
  // No point p95: on local-read-write it is the wait behind the writer's
  // Apply, which ten runs spread by up to 0.31 of the median. The table
  // below still prints it.
  for (Cls c : {Cls::kScan, Cls::kJoin}) {
    const auto& lat = win.cls[static_cast<int>(c)].latency_us;
    m[std::string(ClsName(c)) + "_p95_us"] = {Percentile(lat, 0.95), "us"};
  }
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["space_amp"] = {space_amp, "ratio"};

  // Human-readable table, including the write-side metrics only the
  // read-write workload has.
  std::printf("%-8s %8s %8s %12s %12s %12s\n", "class", "samples", "failed",
              "p50_us", "p95_us", "p99_us");
  for (int c = 0; c < kNumClasses; ++c) {
    const ClassStats& cs = win.cls[c];
    if (cs.attempted == 0) continue;
    std::printf("%-8s %8zu %8" PRIu64 " %12.1f %12.1f %12.1f\n",
                ClsName(static_cast<Cls>(c)), cs.latency_us.size(), cs.failed,
                Percentile(cs.latency_us, 0.5), Percentile(cs.latency_us, 0.95),
                Percentile(cs.latency_us, 0.99));
  }
  for (const auto& [kind, us] : win.kind_us) {
    std::printf("  %-10s %8zu %8s %12.1f %12.1f %12.1f\n", kind.c_str(),
                us.size(), "", Percentile(us, 0.5), Percentile(us, 0.95),
                Percentile(us, 0.99));
  }
  if (rw) {
    const ClassStats& w = win.cls[static_cast<int>(Cls::kWrite)];
    std::printf("write_ops_s %.1f 1/s  write_p50_us %.1f us  write_p99_us %.1f us\n",
                static_cast<double>(w.attempted - w.failed) / win.seconds,
                Percentile(w.latency_us, 0.5), Percentile(w.latency_us, 0.99));
  }
  for (const Window& w : windows) {
    std::printf("window %.2fs qps %.1f data_pages %.1f p50 point %.1f scan %.1f join %.1f global %.1f\n",
                w.seconds, ReadsOk(w) / w.seconds,
                w.write_batches ? w.data_pages_sum / w.write_batches : 0.0,
                Percentile(w.cls[0].latency_us, 0.5),
                Percentile(w.cls[1].latency_us, 0.5),
                Percentile(w.cls[2].latency_us, 0.5),
                Percentile(w.cls[3].latency_us, 0.5));
  }
  std::printf("failed_ratio %.6f  samples_checked %zu  mismatched %" PRIu64
              "  measured_s %.3f  busy_cores %.2f  steal %.2f%%\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              samples.size(), mismatched, win.seconds, busy_cores,
              100 * steal_share);
  for (const auto& [name, metric] : m) {
    std::printf("%-16s %14.3f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  PrintResult(mismatched == 0, attempted, failed, m);
  return mismatched == 0 ? 0 : 1;
}

int RunTracedMode(const Args& a) {
  Setup s = BuildSetup(a.workload, a.seed);
  MeasureSpace(*s.dir, &s);
  PrintEnvironment(a, s);
  uint64_t attempted = 0, failed = 0, mismatched = 0;
  Metrics m = RunTraced(&s, a.workload, a.seed, a.seconds, a.spans_path,
                        &attempted, &failed, &mismatched);
  for (const auto& [name, metric] : m) {
    std::printf("%-34s %14.3f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  PrintResult(mismatched == 0, attempted, failed + mismatched, m);
  return mismatched == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a = perfbench::ParseArgs(argc, argv);
  return a.trace ? perfbench::RunTracedMode(a) : perfbench::RunUntraced(a);
}
