// The Engine API over a distributed backend (ISSUE 10 satellite 1): one
// EngineOptions field swaps the execution substrate from a local store to
// a replicated shard fleet, and Sessions behave identically — same
// results, same batch sharing, same graceful failure modes.

#include "engine/engine.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cost.h"
#include "gen/dif_gen.h"
#include "query/parser.h"

namespace ndq {
namespace {

DirectoryInstance SmallDif() {
  gen::DifOptions opt;
  opt.num_orgs = 2;
  opt.subdomains_per_org = 2;
  return gen::GenerateDif(opt);
}

TopologyConfig ReplicatedTopology() {
  TopologyConfig cfg =
      TopologyConfig::Parse(
          "replicas 2\n"
          "shard root dc=com\n"
          "shard org0 dc=org0, dc=com\n"
          "shard org1 dc=org1, dc=com\n")
          .TakeValue();
  return cfg;
}

EngineOptions DistOptions() {
  EngineOptions opt;
  opt.backend = EngineBackend::kDistributed;
  opt.topology = ReplicatedTopology();
  return opt;
}

const char* kQueries[] = {
    "(dc=com ? sub ? objectClass=TOPSSubscriber)",
    "(dc=org0, dc=com ? sub ? objectClass=QHP)",
    "(c (dc=com ? sub ? objectClass=TOPSSubscriber)"
    "   (dc=com ? sub ? objectClass=QHP) count($2)>=3)",
    "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (& (dc=com ? sub ? sourcePort=25)"
    "       (dc=com ? sub ? objectClass=trafficProfile)) SLATPRef)",
    // Entirely inside one shard: shipped whole to an org0 replica.
    "(c (dc=org0, dc=com ? sub ? objectClass=TOPSSubscriber)"
    "   (dc=org0, dc=com ? sub ? objectClass=QHP) count($2)>=3)",
};

// Same DirectoryInstance behind both backends: Session::Run must agree
// byte-for-byte, with only the substrate (and its counters) differing.
TEST(EngineDistTest, BackendsAgreeThroughSessions) {
  DirectoryInstance global = SmallDif();
  Engine local(global);
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok()) << dist.init_status().ToString();
  EXPECT_EQ(local.fleet(), nullptr);
  ASSERT_NE(dist.fleet(), nullptr);

  Session ls = local.OpenSession();
  Session ds = dist.OpenSession();
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    QueryOutcome lo = ls.Run(text);
    QueryOutcome dout = ds.Run(text);
    ASSERT_TRUE(lo.ok()) << lo.status.ToString();
    ASSERT_TRUE(dout.ok()) << dout.status.ToString();
    EXPECT_EQ(dout.entries, lo.entries);
    EXPECT_TRUE(dout.warnings.empty());
  }
  // The fleet actually served the queries.
  EXPECT_GT(uint64_t{dist.fleet()->net_stats().messages}, 0u);
}

TEST(EngineDistTest, BatchSharingWorksOnTheFleet) {
  DirectoryInstance global = SmallDif();
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok());
  Session session = dist.OpenSession();

  // The TOPSSubscriber leaf repeats across the batch: the census must
  // share it, and the batch must still match one-at-a-time evaluation.
  std::vector<std::string> batch = {kQueries[0], kQueries[2], kQueries[0]};
  std::vector<QueryOutcome> singles;
  for (const std::string& q : batch) singles.push_back(session.Run(q));

  BatchResult result = session.RunBatch(batch);
  ASSERT_EQ(result.outcomes.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(batch[i]);
    ASSERT_TRUE(result.outcomes[i].ok())
        << result.outcomes[i].status.ToString();
    EXPECT_EQ(result.outcomes[i].entries, singles[i].entries);
  }
  EXPECT_GE(result.stats.shared_subtrees, 1u);
  EXPECT_GE(result.stats.cache_hits, 1u);
}

TEST(EngineDistTest, FailedBuildIsGraceful) {
  DirectoryInstance global = SmallDif();
  EngineOptions opt;
  opt.backend = EngineBackend::kDistributed;
  // dc=com itself is uncovered: the build must fail...
  opt.topology =
      TopologyConfig::Parse("shard only-org0 dc=org0, dc=com\n").TakeValue();
  Engine dist(global, opt);
  EXPECT_FALSE(dist.init_status().ok());
  EXPECT_EQ(dist.fleet(), nullptr);
  // ...but queries still complete, carrying that status — never a crash.
  Session session = dist.OpenSession();
  QueryOutcome out = session.Run(kQueries[0]);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.entries.empty());
}

TEST(EngineDistTest, MutationsAndIndexesRejected) {
  DirectoryInstance global = SmallDif();
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok());
  Session session = dist.OpenSession();

  UpdateBatch batch;
  batch.Remove((*global.begin()).second.dn());
  UpdateResult res = session.Apply(batch);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(res.applied, 0u);

  EXPECT_FALSE(dist.BuildIndexes(IndexSpec{}).ok());
}

// EXPLAIN ANALYZE against a fleet: the trace carries the shipping and
// failover counters, and the rendered text exposes them.
TEST(EngineDistTest, ExplainAnalyzeShowsFailovers) {
  DirectoryInstance global = SmallDif();
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok());
  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.backoff_micros = 0;
  dist.fleet()->set_retry_policy(fast);
  for (const auto& shard : dist.fleet()->shards()) {
    shard->replica(0)->set_down(true);
  }
  Session session = dist.OpenSession();
  QueryOutcome out = session.Run(kQueries[0]);
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_TRUE(out.warnings.empty());  // the sibling replicas absorbed it
  EXPECT_GT(out.trace.failovers, 0u);
  std::string rendered = ExplainAnalyze(dist.store(), *out.plan, out.trace);
  EXPECT_NE(rendered.find("failovers"), std::string::npos);
  EXPECT_NE(rendered.find("shipped"), std::string::npos);
}

// The fleet borrows the engine's one pool: its shard fan-out and its
// replicas' evaluations fork onto the pool that also runs session
// dispatch. At parallelism 4, concurrent sessions mixing shipped-whole and
// cross-shard queries must still agree with the sequential run.
TEST(EngineDistTest, FleetBorrowsTheEnginePool) {
  DirectoryInstance global = SmallDif();
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok());
  std::vector<std::vector<Entry>> want;
  {
    Session session = dist.OpenSession();
    for (const char* text : kQueries) {
      QueryOutcome out = session.Run(text);
      ASSERT_TRUE(out.ok()) << out.status.ToString();
      want.push_back(std::move(out.entries));
    }
  }
  // Parallelism 1: the borrowed pool is workerless, so the fleet runs
  // sequentially on the calling thread.
  ASSERT_NE(dist.fleet()->pool(), nullptr);
  EXPECT_EQ(dist.fleet()->pool()->parallelism(), 1u);

  dist.SetParallelism(4);
  EXPECT_EQ(dist.parallelism(), 4u);
  ASSERT_NE(dist.fleet()->pool(), nullptr);
  EXPECT_GT(dist.fleet()->pool()->parallelism(), 1u);

  const size_t n = sizeof(kQueries) / sizeof(kQueries[0]);
  std::vector<std::vector<QueryOutcome>> got(4);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < got.size(); ++c) {
    clients.emplace_back([&, c] {
      Session session = dist.OpenSession();
      for (int round = 0; round < 2; ++round) {
        for (size_t i = 0; i < n; ++i) {
          got[c].push_back(session.Run(kQueries[(i + c) % n]));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < got.size(); ++c) {
    for (size_t k = 0; k < got[c].size(); ++k) {
      SCOPED_TRACE(kQueries[(k + c) % n]);
      ASSERT_TRUE(got[c][k].ok()) << got[c][k].status.ToString();
      EXPECT_EQ(got[c][k].entries, want[(k + c) % n]);
    }
  }
}

}  // namespace
}  // namespace ndq
