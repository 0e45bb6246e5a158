// Batched evaluation against a fleet (Engine RunBatch over a distributed
// backend): coordinator-side sub-plan sharing must return byte-identical
// results to one-at-a-time runs while shipping strictly less over the
// network when the batch repeats sub-plans.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "query/parser.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

EngineOptions PaperFleetOptions() {
  EngineOptions options;
  options.backend = EngineBackend::kDistributed;
  options.topology.shards = {
      {"root-server", "dc=com"},
      {"research-server", "dc=research, dc=att, dc=com"}};
  return options;
}

std::vector<QueryPtr> BatchPlans() {
  // Two distinct queries, each submitted multiple times, spanning both
  // servers (the surName leaf lives under the delegated subtree too).
  const char* texts[] = {
      "(dc=att, dc=com ? sub ? surName=jagadish)",
      "(& (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=att, dc=com ? sub ? objectClass=*))",
      "(dc=att, dc=com ? sub ? surName=jagadish)",
      "(& (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=att, dc=com ? sub ? objectClass=*))",
      "(dc=att, dc=com ? sub ? surName=jagadish)",
      // A non-atomic query entirely inside the delegated subtree: shipped
      // whole to the research server (query shipping), and only once when
      // batched.
      "(c (dc=research, dc=att, dc=com ? sub ? objectClass=TOPSSubscriber)"
      "   (dc=research, dc=att, dc=com ? sub ? objectClass=QHP))",
      "(c (dc=research, dc=att, dc=com ? sub ? objectClass=TOPSSubscriber)"
      "   (dc=research, dc=att, dc=com ? sub ? objectClass=QHP))",
  };
  std::vector<QueryPtr> plans;
  for (const char* text : texts) plans.push_back(ParseQuery(text).TakeValue());
  return plans;
}

TEST(DistBatchTest, BatchMatchesOneAtATimeRuns) {
  std::vector<QueryPtr> plans = BatchPlans();
  const DirectoryInstance inst = testing::PaperInstance();

  Engine sequential(inst, PaperFleetOptions());
  ASSERT_TRUE(sequential.init_status().ok());
  Session one = sequential.OpenSession();
  std::vector<std::vector<Entry>> want;
  for (const QueryPtr& q : plans) {
    QueryOutcome out = one.Run(q);
    ASSERT_TRUE(out.ok()) << out.status.ToString();
    want.push_back(std::move(out.entries));
  }

  Engine batched(inst, PaperFleetOptions());
  ASSERT_TRUE(batched.init_status().ok());
  BatchResult got = batched.OpenSession().RunBatch(plans);
  ASSERT_EQ(got.outcomes.size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE(plans[i]->ToString());
    ASSERT_TRUE(got.outcomes[i].ok()) << got.outcomes[i].status.ToString();
    EXPECT_EQ(got.outcomes[i].entries, want[i]);
  }

  // Sharing at the coordinator: the duplicated queries never re-contact
  // the servers, so the batched fleet moves strictly less than the
  // one-at-a-time one.
  const NetStats& b = batched.fleet()->net_stats();
  const NetStats& s = sequential.fleet()->net_stats();
  EXPECT_LT(b.messages.load(), s.messages.load());
  EXPECT_LT(b.queries_shipped.load(), s.queries_shipped.load());
}

TEST(DistBatchTest, EmptyAndSingletonBatches) {
  Engine engine(testing::PaperInstance(), PaperFleetOptions());
  ASSERT_TRUE(engine.init_status().ok());
  Session session = engine.OpenSession();
  EXPECT_TRUE(session.RunBatch(std::vector<QueryPtr>{}).outcomes.empty());

  QueryPtr q =
      ParseQuery("(dc=att, dc=com ? sub ? surName=jagadish)").TakeValue();
  BatchResult one = session.RunBatch(std::vector<QueryPtr>{q});
  ASSERT_EQ(one.outcomes.size(), 1u);
  ASSERT_TRUE(one.outcomes[0].ok()) << one.outcomes[0].status.ToString();
  QueryOutcome want = session.Run(q);
  ASSERT_TRUE(want.ok()) << want.status.ToString();
  EXPECT_EQ(one.outcomes[0].entries, want.entries);
}

}  // namespace
}  // namespace ndq
