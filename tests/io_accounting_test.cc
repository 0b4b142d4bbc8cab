// Tests of the I/O contracts the paper's analysis rests on (§IV-B, §VI):
// CEA's fetch-at-most-once guarantee, LSA's multiple-read behavior, the
// effect of the buffer size, and the shrinking-stage facility-file
// avoidance.
#include <gtest/gtest.h>

#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/expand/engines.h"
#include "test_util.h"

namespace mcn::algo {
namespace {

using expand::CeaEngine;
using expand::LsaEngine;
using graph::Location;

class IoAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    test::SmallConfig config;
    config.nodes = 600;
    config.edges = 770;
    config.facilities = 50;
    config.num_costs = 4;
    config.seed = 1234;
    instance_ = test::MakeSmallInstance(config).value();
  }

  Location Query(uint64_t seed) {
    Random rng(seed);
    return instance_->RandomQueryLocation(rng);
  }

  std::unique_ptr<gen::ShardedInstance> instance_;
};

TEST_F(IoAccountingTest, CeaNeverFetchesARecordTwice) {
  for (uint64_t s : {1u, 2u, 3u}) {
    Location q = Query(s);
    auto cea = CeaEngine::Create(instance_->reader.get(), q).value();
    SkylineQuery query(cea.get());
    query.ComputeAll().value();
    const auto& st = cea->fetch().stats();
    // Unique-record accounting: every fetch fills the cache exactly once.
    EXPECT_EQ(st.adjacency_fetches, cea->cache().cached_nodes());
    EXPECT_EQ(st.facility_fetches, cea->cache().cached_edges());
    EXPECT_LE(st.adjacency_fetches, instance_->graph.num_nodes());
  }
}

TEST_F(IoAccountingTest, LsaRepeatsReadsUpToD) {
  Location q = Query(7);
  auto lsa = LsaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery lsa_query(lsa.get());
  lsa_query.ComputeAll().value();
  auto lsa_fetches = lsa->fetch().stats().adjacency_fetches;

  auto cea = CeaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery cea_query(cea.get());
  cea_query.ComputeAll().value();
  auto cea_fetches = cea->fetch().stats().adjacency_fetches;

  // Same pop sequences, so LSA touches the same records but up to d times.
  EXPECT_GE(lsa_fetches, cea_fetches);
  EXPECT_LE(lsa_fetches,
            cea_fetches * static_cast<uint64_t>(
                              instance_->graph.num_costs()));
  // On a non-trivial query LSA really does re-read.
  EXPECT_GT(lsa_fetches, cea_fetches);
}

TEST_F(IoAccountingTest, CeaCostsFewerBufferMissesThanLsa) {
  Location q = Query(11);
  instance_->ResetIoState();
  auto lsa = LsaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery lsa_query(lsa.get());
  lsa_query.ComputeAll().value();
  uint64_t lsa_misses = instance_->reader->PoolStats().misses;

  instance_->ResetIoState();
  auto cea = CeaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery cea_query(cea.get());
  cea_query.ComputeAll().value();
  uint64_t cea_misses = instance_->reader->PoolStats().misses;

  EXPECT_LT(cea_misses, lsa_misses);
}

TEST_F(IoAccountingTest, ZeroBufferMakesEveryAccessAMiss) {
  Location q = Query(13);
  instance_->reader->shard_pool(0)->SetCapacity(0);
  instance_->ResetIoState();
  auto cea = CeaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery query(cea.get());
  query.ComputeAll().value();
  EXPECT_EQ(instance_->reader->PoolStats().hits, 0u);
  EXPECT_EQ(instance_->reader->PoolStats().misses,
            instance_->reader->PoolStats().accesses());
  EXPECT_EQ(instance_->storage.MergedStats().page_reads,
            instance_->reader->PoolStats().misses);
}

TEST_F(IoAccountingTest, LargerBufferNeverIncreasesMisses) {
  Location q = Query(17);
  std::vector<uint64_t> misses;
  for (double pct : {0.0, 0.5, 1.0, 2.0, 100.0}) {
    instance_->reader->shard_pool(0)->SetCapacity(
        gen::BufferFrames(pct, instance_->files.total_pages));
    instance_->ResetIoState();
    auto lsa = LsaEngine::Create(instance_->reader.get(), q).value();
    SkylineQuery query(lsa.get());
    query.ComputeAll().value();
    misses.push_back(instance_->reader->PoolStats().misses);
  }
  for (size_t i = 1; i < misses.size(); ++i) {
    EXPECT_LE(misses[i], misses[i - 1]) << "buffer step " << i;
  }
  // Restore default.
  instance_->reader->shard_pool(0)->SetCapacity(
      gen::BufferFrames(1.0, instance_->files.total_pages));
}

TEST_F(IoAccountingTest, FacilityFilterReducesFacilityReads) {
  Location q = Query(19);
  SkylineOptions with;
  SkylineOptions without;
  without.use_facility_filter = false;

  auto e1 = CeaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery q1(e1.get(), with);
  q1.ComputeAll().value();
  uint64_t with_reads = e1->fetch().stats().facility_fetches;

  auto e2 = CeaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery q2(e2.get(), without);
  q2.ComputeAll().value();
  uint64_t without_reads = e2->fetch().stats().facility_fetches;

  EXPECT_LE(with_reads, without_reads);
}

TEST_F(IoAccountingTest, StopFinishedExpansionsReducesNodeWork) {
  Location q = Query(23);
  SkylineOptions with;
  SkylineOptions without;
  without.stop_finished_expansions = false;

  auto e1 = CeaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery q1(e1.get(), with);
  q1.ComputeAll().value();
  uint64_t with_req = e1->fetch().stats().adjacency_requests;

  auto e2 = CeaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery q2(e2.get(), without);
  q2.ComputeAll().value();
  uint64_t without_req = e2->fetch().stats().adjacency_requests;

  EXPECT_LE(with_req, without_req);
}

TEST_F(IoAccountingTest, TopKSharesTheSameIoContracts) {
  Location q = Query(29);
  AggregateFn f = WeightedSum(test::TestWeights(4, 1));
  TopKOptions opts;
  opts.k = 4;

  instance_->ResetIoState();
  auto lsa = LsaEngine::Create(instance_->reader.get(), q).value();
  TopKQuery lsa_query(lsa.get(), f, opts);
  lsa_query.Run().value();
  uint64_t lsa_misses = instance_->reader->PoolStats().misses;

  instance_->ResetIoState();
  auto cea = CeaEngine::Create(instance_->reader.get(), q).value();
  TopKQuery cea_query(cea.get(), f, opts);
  cea_query.Run().value();
  uint64_t cea_misses = instance_->reader->PoolStats().misses;

  EXPECT_LE(cea_misses, lsa_misses);
  EXPECT_EQ(cea->fetch().stats().adjacency_fetches,
            cea->cache().cached_nodes());
}

}  // namespace
}  // namespace mcn::algo
