// Tests of the red::store durability layer and its consumers: atomic-write
// round-trips and failure modes, stale-temp cleanup, the CRC-32 contract,
// ResultStore corruption quarantine (torn tails, flipped bits, bogus
// headers), the SweepOutcome codec, store-backed SweepDriver warm starts,
// graceful interruption / timeout of the optimizer, sharded exhaustive
// search, and merge_states frontier equality with quarantine of damaged
// shard checkpoints.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "red/common/error.h"
#include "red/explore/sweep.h"
#include "red/opt/optimizer.h"
#include "red/plan/plan.h"
#include "red/store/interrupt.h"
#include "red/store/io.h"
#include "red/store/result_store.h"
#include "red/workloads/benchmarks.h"

namespace red {
namespace {

namespace fs = std::filesystem;
using core::DesignKind;

/// Fresh scratch directory per fixture: store files, checkpoints, and
/// deliberately corrupted artifacts never leak between tests.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("red_store_test_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    store::clear_interrupt();
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// ---- atomic IO --------------------------------------------------------------

TEST_F(StoreTest, AtomicWriteRoundTripsAndReplaces) {
  const std::string p = path("doc.json");
  store::write_file_atomic(p, "first");
  EXPECT_EQ(store::read_file(p), "first");
  store::write_file_atomic(p, "second, longer than the first");
  EXPECT_EQ(store::read_file(p), "second, longer than the first");
}

TEST_F(StoreTest, AtomicWriteThrowsIoErrorOnMissingDirectory) {
  EXPECT_THROW(store::write_file_atomic(path("no/such/dir/doc.json"), "x",
                                        {.retries = 1, .backoff_ms = 0}),
               IoError);
}

TEST_F(StoreTest, AtomicWriteLeavesNoTempBehind) {
  store::write_file_atomic(path("doc.json"), "content");
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    ++entries;
    EXPECT_EQ(e.path().filename().string(), "doc.json");
  }
  EXPECT_EQ(entries, 1);
}

TEST_F(StoreTest, ReadFileIfExistsDistinguishesMissing) {
  EXPECT_FALSE(store::read_file_if_exists(path("absent")).has_value());
  EXPECT_THROW((void)store::read_file(path("absent")), IoError);
  store::write_file_atomic(path("present"), "x");
  EXPECT_EQ(store::read_file_if_exists(path("present")).value(), "x");
}

TEST_F(StoreTest, RemoveStaleTempsSweepsOnlySiblingsOfTheTarget) {
  // Stranded temps of doc.json go; doc.json itself, temps of other files,
  // and unrelated names stay. Raw ofstream is the point here: these ARE the
  // torn/stranded artifacts the durability layer must clean up.
  // red-lint: allow(raw-file-write)
  std::ofstream(path("doc.json")) << "live";
  // red-lint: allow(raw-file-write)
  std::ofstream(path("doc.json.tmp.123")) << "stranded";
  // red-lint: allow(raw-file-write)
  std::ofstream(path("doc.json.tmp.456")) << "stranded";
  // red-lint: allow(raw-file-write)
  std::ofstream(path("other.json.tmp.789")) << "someone else's";
  EXPECT_EQ(store::remove_stale_temps(path("doc.json")), 2);
  EXPECT_TRUE(fs::exists(path("doc.json")));
  EXPECT_FALSE(fs::exists(path("doc.json.tmp.123")));
  EXPECT_TRUE(fs::exists(path("other.json.tmp.789")));
  EXPECT_EQ(store::remove_stale_temps(path("doc.json")), 0);  // idempotent
  EXPECT_EQ(store::remove_stale_temps(path("no/such/dir/x")), 0);  // never throws
}

TEST(StoreCrc, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 (reflected, poly 0xEDB88320) known-answer test.
  EXPECT_EQ(store::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(store::crc32(""), 0u);
  EXPECT_NE(store::crc32("red"), store::crc32("reD"));
}

// ---- ResultStore ------------------------------------------------------------

TEST_F(StoreTest, ResultStorePersistsAcrossReopen) {
  const std::string p = path("results.bin");
  {
    store::ResultStore s(p);
    EXPECT_EQ(s.entries(), 0);
    s.put("key-a", "payload-a");
    s.put("key-b", std::string("\x00\xff binary \x01", 11));
    s.put("key-a", "ignored: first write wins in one process");
    EXPECT_EQ(s.entries(), 2);
    EXPECT_EQ(s.report().appended, 2);
  }
  store::ResultStore s(p);
  EXPECT_TRUE(s.report().clean());
  EXPECT_EQ(s.entries(), 2);
  ASSERT_NE(s.lookup("key-a"), nullptr);
  EXPECT_EQ(*s.lookup("key-a"), "payload-a");
  EXPECT_EQ(*s.lookup("key-b"), std::string("\x00\xff binary \x01", 11));
  EXPECT_EQ(s.lookup("key-c"), nullptr);
}

TEST_F(StoreTest, ResultStoreQuarantinesATornTail) {
  const std::string p = path("results.bin");
  {
    store::ResultStore s(p);
    s.put("key-a", "payload-a");
    s.put("key-b", "payload-b");
  }
  // Simulate a writer killed mid-append: chop bytes off the last record.
  // (Deliberately raw, not write_file_atomic — the test needs the torn file.)
  const auto bytes = store::read_file(p);
  // red-lint: allow(raw-file-write)
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes.substr(0, bytes.size() - 5);

  store::ResultStore s(p);
  EXPECT_FALSE(s.report().clean());
  EXPECT_EQ(s.report().records_loaded, 1);
  EXPECT_EQ(s.report().records_quarantined, 1);
  ASSERT_NE(s.lookup("key-a"), nullptr);
  EXPECT_EQ(s.lookup("key-b"), nullptr);
  // The surviving store still accepts appends.
  s.put("key-b", "payload-b");
  EXPECT_EQ(s.entries(), 2);
}

TEST_F(StoreTest, ResultStoreQuarantinesAFlippedBitNotTheFile) {
  const std::string p = path("results.bin");
  {
    store::ResultStore s(p);
    s.put("key-a", "payload-a");
    s.put("key-b", "payload-b");
    s.put("key-c", "payload-c");
  }
  // Flip one bit inside the middle record's payload: only that record dies.
  auto bytes = store::read_file(p);
  const auto at = bytes.find("payload-b");
  ASSERT_NE(at, std::string::npos);
  bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
  // red-lint: allow(raw-file-write) — writing the corrupt fixture is the test
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;

  store::ResultStore s(p);
  EXPECT_EQ(s.report().records_quarantined, 1);
  EXPECT_GT(s.report().bytes_skipped, 0);
  EXPECT_EQ(s.entries(), 2);
  EXPECT_NE(s.lookup("key-a"), nullptr);
  EXPECT_EQ(s.lookup("key-b"), nullptr);
  EXPECT_NE(s.lookup("key-c"), nullptr);
}

TEST_F(StoreTest, ResultStoreSurvivesABogusHeader) {
  const std::string p = path("results.bin");
  // red-lint: allow(raw-file-write) — writing the bogus fixture is the test
  std::ofstream(p, std::ios::binary) << "this is not a store";
  store::ResultStore s(p);
  EXPECT_EQ(s.entries(), 0);
  EXPECT_FALSE(s.report().clean());
  s.put("key", "payload");  // still usable
  EXPECT_NE(s.lookup("key"), nullptr);
}

TEST_F(StoreTest, ResultStoreThrowsIoErrorWhenUncreatable) {
  EXPECT_THROW(store::ResultStore(path("no/such/dir/results.bin")), IoError);
}

// ---- interrupt flag ---------------------------------------------------------

TEST(StoreInterrupt, RequestAndClear) {
  store::clear_interrupt();
  EXPECT_FALSE(store::interrupt_requested());
  store::request_interrupt();
  EXPECT_TRUE(store::interrupt_requested());
  store::clear_interrupt();
  EXPECT_FALSE(store::interrupt_requested());
}

// ---- SweepOutcome codec + store-backed SweepDriver --------------------------

std::vector<explore::SweepPoint> small_grid() {
  std::vector<explore::SweepPoint> grid;
  for (int fold : {1, 2})
    for (int mux : {4, 8, 16}) {
      explore::SweepPoint p;
      p.cfg.red_fold = fold;
      p.cfg.mux_ratio = mux;
      p.spec = workloads::table1_reduced(8)[2];
      grid.push_back(p);
    }
  return grid;
}

TEST(SweepCodec, RoundTripsAnOutcomeBitExactly) {
  explore::SweepDriver driver(1);
  const auto outcomes = driver.evaluate(small_grid());
  for (const auto& o : outcomes) {
    const auto back = explore::decode_outcome(explore::encode_outcome(o));
    EXPECT_EQ(back.activity.design_name, o.activity.design_name);
    EXPECT_EQ(back.activity.cycles, o.activity.cycles);
    EXPECT_EQ(back.activity.mac_pulses, o.activity.mac_pulses);
    EXPECT_EQ(back.activity.macros.size(), o.activity.macros.size());
    EXPECT_EQ(back.cost.cycles(), o.cost.cycles());
    EXPECT_EQ(back.cost.total_latency().value(), o.cost.total_latency().value());
    EXPECT_EQ(back.cost.total_energy().value(), o.cost.total_energy().value());
    EXPECT_EQ(back.cost.total_area().value(), o.cost.total_area().value());
    EXPECT_EQ(back.cost.leakage().value(), o.cost.leakage().value());
  }
}

TEST(SweepCodec, RejectsTruncatedAndForeignPayloads) {
  explore::SweepDriver driver(1);
  const auto outcomes = driver.evaluate(small_grid());
  const std::string good = explore::encode_outcome(outcomes[0]);
  EXPECT_THROW((void)explore::decode_outcome(good.substr(0, good.size() / 2)), ConfigError);
  EXPECT_THROW((void)explore::decode_outcome(good + "trailing"), ConfigError);
  EXPECT_THROW((void)explore::decode_outcome("not a payload"), ConfigError);
  EXPECT_THROW((void)explore::decode_outcome(""), ConfigError);
}

TEST_F(StoreTest, SweepDriverWarmStartsFromTheStoreBitIdentically) {
  const std::string p = path("sweep.store");
  const auto grid = small_grid();

  explore::SweepDriver cold(2);
  cold.attach_store(std::make_shared<store::ResultStore>(p));
  const auto cold_out = cold.evaluate(grid);
  EXPECT_EQ(cold.stats().store_hits, 0);
  EXPECT_EQ(cold.stats().evaluated, std::ssize(grid));

  // A new driver + reopened store: every point served from disk, none
  // computed, results bit-identical.
  explore::SweepDriver warm(2);
  warm.attach_store(std::make_shared<store::ResultStore>(p));
  const auto warm_out = warm.evaluate(grid);
  EXPECT_EQ(warm.stats().store_hits, std::ssize(grid));
  EXPECT_EQ(warm.stats().evaluated, 0);
  ASSERT_EQ(warm_out.size(), cold_out.size());
  for (std::size_t i = 0; i < cold_out.size(); ++i) {
    EXPECT_EQ(warm_out[i].cost.total_latency().value(),
              cold_out[i].cost.total_latency().value());
    EXPECT_EQ(warm_out[i].cost.total_energy().value(),
              cold_out[i].cost.total_energy().value());
    EXPECT_EQ(warm_out[i].activity.cycles, cold_out[i].activity.cycles);
  }
}

TEST_F(StoreTest, SweepDriverTreatsCorruptPayloadAsAMiss) {
  const std::string p = path("sweep.store");
  {
    // A store full of records whose payloads are NOT sweep outcomes: the
    // CRC layer accepts them, the codec rejects them, the driver recomputes.
    store::ResultStore s(p);
    for (const auto& pt : small_grid())
      s.put(plan::structural_key(pt.kind, pt.cfg, pt.spec), "junk payload");
  }
  explore::SweepDriver driver(1);
  driver.attach_store(std::make_shared<store::ResultStore>(p));
  const auto out = driver.evaluate(small_grid());
  EXPECT_EQ(driver.stats().store_hits, 0);
  EXPECT_EQ(driver.stats().store_rejects, std::ssize(out));
  EXPECT_EQ(driver.stats().evaluated, std::ssize(out));
}

// ---- optimizer: store, interruption, sharding, merge ------------------------

opt::SearchSpace store_space() {
  opt::SearchSpace space({workloads::table1_reduced(8)[2]}, DesignKind::kRed,
                         arch::DesignConfig{});
  space.add_axis({opt::AxisField::kRedFold, {1, 2}});
  space.add_axis({opt::AxisField::kMuxRatio, {4, 8, 16}});
  return space;
}

opt::Optimizer make_optimizer(opt::OptimizerOptions options) {
  return {store_space(), opt::Objective::parse("latency,area"), {}, std::move(options)};
}

std::set<std::vector<double>> objective_set(const std::vector<opt::CandidateEval>& frontier) {
  std::set<std::vector<double>> set;
  for (const auto& e : frontier) set.insert(e.objectives);
  return set;
}

TEST_F(StoreTest, OptimizerInterruptCheckpointsAndResumesBitIdentically) {
  const std::string ckpt = path("ckpt.json");
  opt::OptimizerOptions options;
  options.search.batch = 2;

  // Uninterrupted reference run.
  auto reference = make_optimizer(options);
  reference.set_checkpoint_file(path("ref.json"), 1);
  const auto full = reference.run();
  EXPECT_TRUE(full.complete);
  EXPECT_FALSE(full.interrupted);

  // Interrupt before the search starts: zero batches run, a checkpoint is
  // still force-written, and the result says interrupted.
  store::request_interrupt();
  auto interrupted = make_optimizer(options);
  interrupted.set_checkpoint_file(ckpt, 1);
  const auto partial = interrupted.run();
  store::clear_interrupt();
  EXPECT_TRUE(partial.interrupted);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.stats.batches, 0);

  // Resume finishes the search; the final checkpoint bytes equal the
  // uninterrupted run's (trajectory-prefix invariance).
  auto resumed = make_optimizer(options);
  resumed.set_checkpoint_file(ckpt, 1);
  const auto rest = resumed.resume(store::read_file(ckpt));
  EXPECT_TRUE(rest.complete);
  EXPECT_FALSE(rest.interrupted);
  EXPECT_EQ(store::read_file(ckpt), store::read_file(path("ref.json")));
}

TEST_F(StoreTest, OptimizerTimeoutStopsAtABatchBoundary) {
  opt::OptimizerOptions options;
  options.timeout_ms = 1e-9;  // expires before the first boundary check
  auto optimizer = make_optimizer(options);
  const auto result = optimizer.run();
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.stats.batches, 0);
}

TEST_F(StoreTest, OptimizerStoreWarmStartSkipsEveryEvaluation) {
  const std::string p = path("opt.store");
  opt::OptimizerOptions options;

  auto cold = make_optimizer(options);
  cold.attach_store(std::make_shared<store::ResultStore>(p));
  const auto cold_result = cold.run();
  EXPECT_EQ(cold.sweep_stats().store_hits, 0);

  auto warm = make_optimizer(options);
  warm.attach_store(std::make_shared<store::ResultStore>(p));
  const auto warm_result = warm.run();
  EXPECT_EQ(warm.sweep_stats().evaluated, 0);
  EXPECT_GT(warm.sweep_stats().store_hits, 0);
  EXPECT_EQ(objective_set(warm_result.frontier), objective_set(cold_result.frontier));
}

TEST(OptimizerShard, RejectsBadSpecsAndStochasticStrategies) {
  opt::OptimizerOptions options;
  options.search.shard_index = 2;
  options.search.shard_count = 2;
  EXPECT_THROW(make_optimizer(options), ConfigError);
  options.search.shard_index = 0;
  options.strategy = "anneal";
  EXPECT_THROW(make_optimizer(options), ConfigError);
}

TEST(OptimizerShard, ShardsPartitionTheOrdinalSpaceDisjointly) {
  const int kShards = 3;
  std::set<std::int64_t> seen;
  std::int64_t total = 0;
  for (int i = 0; i < kShards; ++i) {
    opt::OptimizerOptions options;
    options.search.batch = 2;
    options.search.shard_index = i;
    options.search.shard_count = kShards;
    auto optimizer = make_optimizer(options);
    const auto result = optimizer.run();
    EXPECT_TRUE(result.complete);
    for (const auto& e : result.state.evaluated) {
      EXPECT_EQ(e.ordinal % kShards, i);
      EXPECT_TRUE(seen.insert(e.ordinal).second) << "ordinal evaluated twice";
      ++total;
    }
  }
  EXPECT_EQ(total, store_space().size());
}

TEST_F(StoreTest, MergedShardsEqualTheSingleProcessFrontier) {
  // Two half-grid shards, merged; the merged frontier and the merged
  // checkpoint must both equal what one unsharded process produces.
  std::vector<std::pair<std::string, std::string>> documents;
  for (int i = 0; i < 2; ++i) {
    opt::OptimizerOptions options;
    options.search.shard_index = i;
    options.search.shard_count = 2;
    auto shard = make_optimizer(options);
    const auto result = shard.run();
    documents.emplace_back("shard" + std::to_string(i),
                           shard.checkpoint_json(result.state));
  }

  auto single = make_optimizer({});
  const auto reference = single.run();

  auto merger = make_optimizer({});
  const auto merged = merger.merge_states(documents);
  EXPECT_EQ(merged.shards_merged, 2);
  EXPECT_EQ(merged.duplicate_evals, 0);
  EXPECT_TRUE(merged.quarantined.empty());
  EXPECT_EQ(std::ssize(merged.state.evaluated), store_space().size());

  const auto frontier = merger.frontier_of(merged.state);
  ASSERT_EQ(frontier.size(), reference.frontier.size());
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    EXPECT_EQ(frontier[i].ordinal, reference.frontier[i].ordinal);
    EXPECT_EQ(frontier[i].objectives, reference.frontier[i].objectives);
  }

  // The merged state is already fully explored: resuming it unsharded runs
  // zero batches and reports completion.
  auto resumer = make_optimizer({});
  const auto resumed = resumer.resume(merger.checkpoint_json(merged.state));
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.stats.evaluations, 0);
  EXPECT_EQ(objective_set(resumed.frontier), objective_set(reference.frontier));
}

TEST_F(StoreTest, MergeQuarantinesDamagedShardsAndKeepsTheRest) {
  std::vector<std::pair<std::string, std::string>> documents;
  for (int i = 0; i < 2; ++i) {
    opt::OptimizerOptions options;
    options.search.shard_index = i;
    options.search.shard_count = 2;
    auto shard = make_optimizer(options);
    documents.emplace_back("shard" + std::to_string(i),
                           shard.checkpoint_json(shard.run().state));
  }
  // Corrupt shard 1, duplicate shard 0, add one unparsable document.
  documents[1].second[documents[1].second.find("fingerprint") + 20] = 'z';
  documents.push_back({"dup-of-0", documents[0].second});
  documents.push_back({"garbage", "not json at all"});

  auto merger = make_optimizer({});
  const auto merged = merger.merge_states(documents);
  EXPECT_EQ(merged.shards_merged, 2);  // shard0 + its duplicate
  ASSERT_EQ(merged.quarantined.size(), 2u);
  EXPECT_EQ(merged.quarantined[0].name, "shard1");
  EXPECT_EQ(merged.quarantined[1].name, "garbage");
  EXPECT_GT(merged.duplicate_evals, 0);
  // Half the grid survives; the cursor points at the first gap so an
  // unsharded resume can fill in what the dead shard never logged.
  EXPECT_EQ(std::ssize(merged.state.evaluated), store_space().size() / 2);
  EXPECT_EQ(merged.state.next_ordinal, 1);  // ordinal 1 belonged to shard 1

  auto resumer = make_optimizer({});
  const auto completed = resumer.resume(merger.checkpoint_json(merged.state));
  EXPECT_TRUE(completed.complete);
  EXPECT_EQ(std::ssize(completed.state.evaluated), store_space().size());

  auto reference = make_optimizer({});
  EXPECT_EQ(objective_set(completed.frontier), objective_set(reference.run().frontier));
}

TEST(OptimizerMerge, ThrowsWhenNothingSurvives) {
  auto merger = make_optimizer({});
  EXPECT_THROW((void)merger.merge_states({{"bad", "junk"}}), ConfigError);
  EXPECT_THROW((void)merger.merge_states({}), ConfigError);
}

}  // namespace
}  // namespace red
