// Page-level I/O accounting.
//
// Every theorem in the paper bounds *I/O complexity*: the number of page
// transfers performed, in units of the blocking factor B. IoStats is the
// measured counterpart: the simulated disk bumps these counters on every
// page transfer, and the benchmark harnesses in /bench validate the
// theorems against them (not against wall time).
//
// The counters are relaxed atomics so that concurrent evaluation threads
// (exec/evaluator.h) keep the accounting EXACT: fetch_add never
// loses an increment, and no ordering beyond the count itself is needed.
// RelaxedCounter converts implicitly to uint64_t, so counter reads and
// arithmetic look exactly like the plain-integer code they replaced.

#ifndef NDQ_STORAGE_IO_STATS_H_
#define NDQ_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace ndq {

/// A uint64_t counter with atomic (memory_order_relaxed) increments and
/// loads. Copyable (snapshot semantics), so structs of counters can still
/// be copied, subtracted and stored in traces like plain structs.
class RelaxedCounter {
 public:
  RelaxedCounter(uint64_t v = 0) : v_(v) {}  // NOLINT(runtime/explicit)
  RelaxedCounter(const RelaxedCounter& o) : v_(o.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  operator uint64_t() const { return load(); }
  uint64_t load() const { return v_.load(std::memory_order_relaxed); }

  uint64_t operator++() {
    return v_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  uint64_t operator+=(uint64_t d) {
    return v_.fetch_add(d, std::memory_order_relaxed) + d;
  }

 private:
  std::atomic<uint64_t> v_;
};

struct IoStats {
  RelaxedCounter page_reads = 0;
  RelaxedCounter page_writes = 0;
  RelaxedCounter pages_allocated = 0;
  RelaxedCounter pages_freed = 0;
  /// Operations refused by an attached FaultInjector (storage/
  /// fault_injector.h). Injected faults are counted here — NOT in the
  /// transfer counters above — because the simulated transfer never
  /// happened; the paper's I/O bounds stay comparable under injection.
  RelaxedCounter faults_injected = 0;
  /// Prefetched reads that were already resident when the scan consumed
  /// them (no stall). Only nonzero with an async engine attached
  /// (Disk::SetIoDepth); a hit still counts its page_read at consumption.
  RelaxedCounter prefetch_hits = 0;
  /// Physical reads started by the prefetch window but never consumed
  /// (abandoned scans). Real device work, but NOT counted in page_reads:
  /// the synchronous execution would never have issued them, and the
  /// paper's transfer bounds are over the synchronous op stream.
  RelaxedCounter prefetch_wasted = 0;
  /// Microseconds consumers spent blocked waiting for async completions.
  RelaxedCounter io_wait_us = 0;

  uint64_t TotalTransfers() const { return page_reads + page_writes; }

  void Reset() { *this = IoStats(); }

  IoStats operator-(const IoStats& other) const {
    IoStats d;
    d.page_reads = page_reads - other.page_reads;
    d.page_writes = page_writes - other.page_writes;
    d.pages_allocated = pages_allocated - other.pages_allocated;
    d.pages_freed = pages_freed - other.pages_freed;
    d.faults_injected = faults_injected - other.faults_injected;
    d.prefetch_hits = prefetch_hits - other.prefetch_hits;
    d.prefetch_wasted = prefetch_wasted - other.prefetch_wasted;
    d.io_wait_us = io_wait_us - other.io_wait_us;
    return d;
  }

  IoStats& operator+=(const IoStats& other) {
    page_reads += other.page_reads;
    page_writes += other.page_writes;
    pages_allocated += other.pages_allocated;
    pages_freed += other.pages_freed;
    faults_injected += other.faults_injected;
    prefetch_hits += other.prefetch_hits;
    prefetch_wasted += other.prefetch_wasted;
    io_wait_us += other.io_wait_us;
    return *this;
  }

  std::string ToString() const {
    std::string out = "reads=" + std::to_string(page_reads.load()) +
                      " writes=" + std::to_string(page_writes.load()) +
                      " alloc=" + std::to_string(pages_allocated.load()) +
                      " freed=" + std::to_string(pages_freed.load());
    if (faults_injected.load() != 0) {
      out += " faults=" + std::to_string(faults_injected.load());
    }
    // Async-only counters render only when async I/O actually ran, so
    // synchronous output (and every golden string built on it) is
    // unchanged.
    if (prefetch_hits.load() != 0) {
      out += " prefetch_hits=" + std::to_string(prefetch_hits.load());
    }
    if (prefetch_wasted.load() != 0) {
      out += " prefetch_wasted=" + std::to_string(prefetch_wasted.load());
    }
    if (io_wait_us.load() != 0) {
      out += " io_wait_us=" + std::to_string(io_wait_us.load());
    }
    return out;
  }
};

}  // namespace ndq

#endif  // NDQ_STORAGE_IO_STATS_H_
