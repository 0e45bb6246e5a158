// Replicas serve concurrent requests: no per-replica lock serializes them.
// Four threads call Execute at once on one single-replica fleet, mixing
// queries shipped whole to a replica with cross-shard queries, and every
// result must equal the reference semantics byte for byte. Tracing stays
// exact: a shipped-whole query's root io is the fleet-wide I/O delta.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/distributed.h"
#include "query/parser.h"
#include "query/reference.h"
#include "storage/fault_injector.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

// dc=com + dc=att on the root server, the research subdomain delegated;
// one replica each, so concurrent requests to a shard meet on one server.
DistributedDirectory PaperFleet() {
  TopologyConfig topology;
  topology.shards = {{"root-server", "dc=com"},
                     {"research-server", "dc=research, dc=att, dc=com"}};
  return DistributedDirectory::Build(testing::PaperInstance(), topology)
      .TakeValue();
}

// Entirely inside the research context: shipped whole.
const char* kShipped[] = {
    "(c (dc=research, dc=att, dc=com ? sub ? objectClass=TOPSSubscriber)"
    "   (dc=research, dc=att, dc=com ? sub ? objectClass=QHP) count($2)>1)",
    "(& (dc=research, dc=att, dc=com ? sub ? objectClass=QHP)"
    "   (dc=research, dc=att, dc=com ? sub ? objectClass=*))",
    "(vd (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (dc=research, dc=att, dc=com ? sub ? objectClass=trafficProfile)"
    "    SLATPRef)",
};

// Spanning both servers: per-atomic fetches merged at the coordinator.
const char* kCrossShard[] = {
    "(& (dc=com ? sub ? objectClass=dcObject)"
    "   (dc=research, dc=att, dc=com ? sub ? objectClass=dcObject))",
    "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)"
    "   (dc=att, dc=com ? sub ? surName=jagadish))",
    "(dc=com ? sub ? objectClass=*)",
};

std::vector<Entry> ReferenceResult(const DirectoryInstance& global,
                                   const Query& q) {
  std::vector<const Entry*> ref = EvaluateReference(q, global).TakeValue();
  std::vector<Entry> out;
  for (const Entry* e : ref) out.push_back(*e);
  return out;
}

IoStats FleetIo(DistributedDirectory& fleet) {
  IoStats total = fleet.coordinator_disk()->stats();
  for (DirectoryServer* server : fleet.servers()) {
    total += server->disk()->stats();
  }
  return total;
}

TEST(DistConcurrencyTest, ConcurrentExecuteMatchesReference) {
  const DirectoryInstance global = testing::PaperInstance();
  DistributedDirectory fleet = PaperFleet();
  std::vector<QueryPtr> queries;
  for (const char* text : kShipped) {
    queries.push_back(ParseQuery(text).TakeValue());
    ASSERT_NE(fleet.SingleOwner(*queries.back()), nullptr) << text;
  }
  for (const char* text : kCrossShard) {
    queries.push_back(ParseQuery(text).TakeValue());
    ASSERT_EQ(fleet.SingleOwner(*queries.back()), nullptr) << text;
  }
  std::vector<std::vector<Entry>> want;
  for (const QueryPtr& q : queries) want.push_back(ReferenceResult(global, *q));

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  const size_t n = queries.size();
  // got[t][k]: thread t's k-th call, which ran queries[(k + t) % n]. Odd
  // threads trace, so traced and untraced evaluations overlap too.
  std::vector<std::vector<Result<std::vector<Entry>>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < kRounds * n; ++k) {
        OpTrace trace;
        got[t].push_back(fleet.Execute(*queries[(k + t) % n],
                                       t % 2 == 1 ? &trace : nullptr));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < got[t].size(); ++k) {
      const size_t i = (k + t) % n;
      SCOPED_TRACE(queries[i]->ToString());
      ASSERT_TRUE(got[t][k].ok()) << got[t][k].status().ToString();
      EXPECT_EQ(*got[t][k], want[i]);
    }
  }
  EXPECT_EQ(fleet.net_stats().queries_shipped.load(),
            uint64_t{kThreads} * kRounds * (sizeof(kShipped) /
                                            sizeof(kShipped[0])));
  EXPECT_EQ(fleet.net_stats().degraded_results.load(), 0u);
}

// Run alone, a traced shipped-whole query's root io is exactly the
// fleet-wide I/O delta — also when a transient read fault makes the
// replica walk abandon an attempt and retry: the abandoned attempt's I/O
// still belongs to the query.
TEST(DistConcurrencyTest, ShippedWholeRootIoIsTheFleetDelta) {
  DistributedDirectory fleet = PaperFleet();
  RetryPolicy fast;
  fast.backoff_micros = 0;
  fleet.set_retry_policy(fast);
  DirectoryServer* research = fleet.FindServer("research-server");
  for (const char* text : kShipped) {
    for (uint64_t fail_read : {uint64_t{0}, uint64_t{3}}) {
      SCOPED_TRACE(std::string(text) + " failing read #" +
                   std::to_string(fail_read));
      QueryPtr q = ParseQuery(text).TakeValue();
      FaultInjector fi(
          {FaultInjector::FailNth(fail_read, FaultOpBit(FaultOp::kRead))});
      if (fail_read > 0) research->disk()->set_fault_injector(&fi);
      fleet.ResetStats();
      const IoStats before = FleetIo(fleet);
      OpTrace trace;
      Result<std::vector<Entry>> r = fleet.Execute(*q, &trace);
      research->disk()->set_fault_injector(nullptr);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const IoStats delta = FleetIo(fleet) - before;
      EXPECT_EQ(fleet.net_stats().queries_shipped.load(), 1u);
      EXPECT_EQ(trace.retries, fail_read > 0 ? 1u : 0u);
      EXPECT_EQ(trace.NodeCount(), q->NodeCount());
      EXPECT_EQ(trace.shipped_records, r->size());
      // Execute reads the result off the coordinator and frees it after
      // the root's trace closes: one read and one free per result page.
      EXPECT_EQ(trace.io.page_reads + trace.output_pages, delta.page_reads);
      EXPECT_EQ(trace.io.pages_freed + trace.output_pages,
                delta.pages_freed);
      EXPECT_EQ(trace.io.page_writes, delta.page_writes);
      EXPECT_EQ(trace.io.pages_allocated, delta.pages_allocated);
      // The remote evaluation itself did I/O on the replica.
      EXPECT_GT(trace.children[0].io.page_reads, 0u);
    }
  }
}

}  // namespace
}  // namespace ndq
