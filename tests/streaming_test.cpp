// Tests of the streaming batched execution engine and the ThreadPool
// workload shapes it leans on: equivalence against per-image
// simulate_network, thread-count invariance of outputs and stats (across
// wave cells and inside a stage), the ProgrammedLayer batch entry point and
// binding cache, and pool behaviour under nesting, exceptions, and
// concurrent caller threads.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "red/common/error.h"
#include "red/core/designs.h"
#include "red/perf/thread_pool.h"
#include "red/plan/plan.h"
#include "red/sim/engine.h"
#include "red/sim/streaming.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

namespace red::sim {
namespace {

std::vector<nn::DeconvLayerSpec> tiny_stack() {
  // SNGAN generator at 1/64 channels: three chained stages small enough for
  // exhaustive functional comparison.
  return workloads::sngan_generator(64);
}

/// The chained per-stage inputs image `img` produces: stage 0 consumes the
/// image, stage i consumes the requantized output of stage i-1.
std::vector<Tensor<std::int32_t>> chained_inputs(const arch::Design& design,
                                                 const std::vector<nn::DeconvLayerSpec>& stack,
                                                 const std::vector<Tensor<std::int32_t>>& kernels,
                                                 const Tensor<std::int32_t>& img, int abits) {
  std::vector<Tensor<std::int32_t>> inputs{img};
  for (std::size_t i = 0; i + 1 < stack.size(); ++i)
    inputs.push_back(requantize_activations(
        design.run(stack[i], inputs.back(), kernels[i]), abits));
  return inputs;
}

TEST(Streaming, BitIdenticalToPerImageSimulateNetworkForEveryDesign) {
  const auto stack = tiny_stack();
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 3, 21);
  const arch::DesignConfig cfg;

  for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                    core::DesignKind::kRed}) {
    const StreamingExecutor executor(kind, cfg, stack, kernels);
    StreamingOptions opts;
    opts.threads = 3;
    const auto streamed = executor.stream(images, opts);
    ASSERT_EQ(streamed.images.size(), images.size());

    const auto design = core::make_design(kind, cfg);
    arch::RunStats batch_total;
    for (std::size_t k = 0; k < images.size(); ++k) {
      const auto inputs = chained_inputs(*design, stack, kernels, images[k], cfg.quant.abits);
      const auto net = simulate_network(*design, stack, inputs, kernels, /*check=*/true);
      ASSERT_EQ(streamed.images[k].layer_stats.size(), net.layers.size());
      for (std::size_t i = 0; i < net.layers.size(); ++i)
        EXPECT_EQ(streamed.images[k].layer_stats[i], net.layers[i].measured)
            << design->name() << " image " << k << " stage " << i;
      EXPECT_EQ(first_mismatch(net.layers.back().output, streamed.images[k].output), "")
          << design->name() << " image " << k;
      EXPECT_EQ(streamed.images[k].total, net.total) << design->name() << " image " << k;
      batch_total += net.total;
    }
    EXPECT_EQ(streamed.total, batch_total) << design->name();
  }
}

TEST(Streaming, DeterministicForAnyThreadCountAndSchedule) {
  const auto stack = tiny_stack();
  const auto kernels = workloads::make_stack_kernels(stack, 5);
  const auto images = workloads::make_input_batch(stack[0], 4, 31);
  const arch::DesignConfig cfg;
  const StreamingExecutor executor(core::DesignKind::kRed, cfg, stack, kernels);

  StreamingOptions serial;
  serial.threads = 1;
  const auto reference = executor.stream(images, serial);

  // Wave lanes nesting stage-internal chunks (opts.threads), stage chunks
  // alone (ProgrammedLayer::run's budget), and the layer-major schedule must
  // all reproduce the serial walk bit-exactly.
  std::vector<StreamingBatchResult> candidates;
  for (int threads : {2, 8}) {
    StreamingOptions opts;
    opts.threads = threads;
    candidates.push_back(executor.stream(images, opts));
  }
  const auto design = core::make_design(core::DesignKind::kRed, cfg);
  std::vector<std::unique_ptr<arch::ProgrammedLayer>> stages;
  for (std::size_t i = 0; i < stack.size(); ++i)
    stages.push_back(design->program(stack[i], kernels[i]));
  StreamingBatchResult chunked;
  chunked.images.resize(images.size());
  for (std::size_t k = 0; k < images.size(); ++k) {
    StreamingImageResult& img = chunked.images[k];
    img.layer_stats.resize(stack.size());
    Tensor<std::int32_t> x = images[k];
    for (std::size_t i = 0; i < stack.size(); ++i) {
      Tensor<std::int32_t> y = stages[i]->run(x, &img.layer_stats[i], /*threads=*/2);
      img.total += img.layer_stats[i];
      x = i + 1 < stack.size() ? requantize_activations(y, cfg.quant.abits) : std::move(y);
    }
    img.output = std::move(x);
    chunked.total += img.total;
  }
  candidates.push_back(std::move(chunked));
  StreamingOptions nested;
  nested.threads = 2;
  candidates.push_back(executor.stream_layer_major(images, nested));

  for (const auto& result : candidates) {
    ASSERT_EQ(result.images.size(), reference.images.size());
    EXPECT_EQ(result.total, reference.total);
    for (std::size_t k = 0; k < reference.images.size(); ++k) {
      EXPECT_EQ(first_mismatch(reference.images[k].output, result.images[k].output), "");
      EXPECT_EQ(result.images[k].total, reference.images[k].total);
      for (std::size_t i = 0; i < stack.size(); ++i)
        EXPECT_EQ(result.images[k].layer_stats[i], reference.images[k].layer_stats[i]);
    }
  }
}

TEST(Streaming, OneImageBudgetSpentInsideTheStageIsBitIdentical) {
  // The last stage is stride 4: 16 RED mode groups. A one-image request has
  // one cell per wave, so the whole budget goes into the stage's own chunks.
  const std::vector<nn::DeconvLayerSpec> stack{{"up2", 3, 3, 4, 6, 4, 4, 2, 1, 0},
                                               {"up4", 6, 6, 6, 3, 8, 8, 4, 2, 0}};
  const auto kernels = workloads::make_stack_kernels(stack, 13);
  const auto images = workloads::make_input_batch(stack[0], 1, 17);
  const arch::DesignConfig cfg;
  for (auto kind : {core::DesignKind::kRed, core::DesignKind::kZeroPadding,
                    core::DesignKind::kPaddingFree}) {
    const auto splan = plan::plan_stack(kind, stack, cfg);
    if (kind == core::DesignKind::kRed) {
      ASSERT_GE(splan.layers.back().groups.size(), 16u);
    }
    const StreamingExecutor executor(splan, kernels);

    const auto design = core::make_design(kind, cfg);
    const auto inputs = chained_inputs(*design, stack, kernels, images[0], cfg.quant.abits);
    std::vector<arch::RunStats> expected_stats(stack.size());
    arch::RunStats expected_total;
    Tensor<std::int32_t> expected_output;
    for (std::size_t i = 0; i < stack.size(); ++i) {
      auto out = design->run(stack[i], inputs[i], kernels[i], &expected_stats[i]);
      expected_total += expected_stats[i];
      if (i + 1 == stack.size()) expected_output = std::move(out);
    }

    for (int threads : {1, 2, 3, 4, 7}) {
      StreamingOptions opts;
      opts.threads = threads;
      for (const auto& result :
           {executor.stream(images, opts), executor.stream_layer_major(images, opts)}) {
        ASSERT_EQ(result.images.size(), 1u);
        const auto& img = result.images[0];
        EXPECT_EQ(first_mismatch(expected_output, img.output), "")
            << design->name() << " at " << threads << " threads";
        for (std::size_t i = 0; i < stack.size(); ++i)
          EXPECT_EQ(img.layer_stats[i], expected_stats[i])
              << design->name() << " stage " << i << " at " << threads << " threads";
        EXPECT_EQ(img.total, expected_total) << design->name() << " at " << threads;
        EXPECT_EQ(result.total, expected_total) << design->name() << " at " << threads;
      }
    }
  }
}

TEST(Streaming, VariationConfigStreamsLikePerImageDesignRuns) {
  // Device variation is programmed into every stage once, from scratch with
  // the config's seed — exactly what each per-image Design::run programs —
  // so the stream is bit-identical to the per-image chain. Faults inject into
  // clean levels only, so faulted() refuses a varied executor.
  const auto stack = tiny_stack();
  const auto kernels = workloads::make_stack_kernels(stack, 19);
  const auto images = workloads::make_input_batch(stack[0], 2, 23);
  arch::DesignConfig cfg;
  cfg.quant.variation.level_sigma = 0.4;
  cfg.quant.variation.stuck_at_rate = 0.01;
  cfg.quant.variation.seed = 5;
  for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                    core::DesignKind::kRed}) {
    const StreamingExecutor executor(kind, cfg, stack, kernels);
    StreamingOptions opts;
    opts.threads = 2;
    const auto streamed = executor.stream(images, opts);
    const auto design = core::make_design(kind, cfg);
    for (std::size_t k = 0; k < images.size(); ++k) {
      Tensor<std::int32_t> x = images[k];
      for (std::size_t i = 0; i < stack.size(); ++i) {
        arch::RunStats stats;
        Tensor<std::int32_t> y = design->run(stack[i], x, kernels[i], &stats);
        EXPECT_EQ(streamed.images[k].layer_stats[i], stats)
            << design->name() << " image " << k << " stage " << i;
        x = i + 1 < stack.size() ? requantize_activations(y, cfg.quant.abits) : std::move(y);
      }
      EXPECT_EQ(first_mismatch(x, streamed.images[k].output), "")
          << design->name() << " image " << k;
    }
    EXPECT_THROW((void)executor.faulted(fault::FaultModel{}, fault::RepairPolicy{}),
                 ConfigError)
        << design->name();
  }
}

TEST(Streaming, EmptyBatchIsANoOp) {
  const auto stack = tiny_stack();
  const StreamingExecutor executor(core::DesignKind::kZeroPadding, {}, stack,
                                   workloads::make_stack_kernels(stack, 3));
  const auto result = executor.stream({});
  EXPECT_TRUE(result.images.empty());
  EXPECT_EQ(result.total, arch::RunStats{});
  EXPECT_EQ(result.depth, stack.size());
}

TEST(Streaming, RequantizeClampsReluAndFitsAbits) {
  Tensor<std::int32_t> t(Shape4{1, 1, 2, 2});
  t.at(0, 0, 0, 0) = -5;
  t.at(0, 0, 0, 1) = 3;
  t.at(0, 0, 1, 0) = 1000;
  t.at(0, 0, 1, 1) = 127;
  const auto q8 = requantize_activations(t, 8);  // max must fit < 128: shift 3
  EXPECT_EQ(q8.at(0, 0, 0, 0), 0);
  EXPECT_EQ(q8.at(0, 0, 0, 1), 0);
  EXPECT_EQ(q8.at(0, 0, 1, 0), 125);
  EXPECT_EQ(q8.at(0, 0, 1, 1), 15);
  // Already in range: identity on non-negative values.
  const auto identity = requantize_activations(q8, 8);
  EXPECT_EQ(first_mismatch(identity, q8), "");
}

TEST(ProgrammedLayer, RunBatchMatchesSequentialRuns) {
  const nn::DeconvLayerSpec spec{"batch_probe", 6, 6, 8, 4, 4, 4, 2, 1, 0};
  Rng rng(9);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  std::vector<Tensor<std::int32_t>> inputs;
  for (int k = 0; k < 3; ++k) {
    Rng irng(50 + static_cast<std::uint64_t>(k));
    inputs.push_back(workloads::make_input(spec, irng, 0, 7));
  }
  for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                    core::DesignKind::kRed}) {
    const auto design = core::make_design(kind);
    const auto programmed = design->program(spec, kernel);
    std::vector<arch::RunStats> batch_stats;
    const auto outputs = programmed->run_batch(inputs, &batch_stats);
    ASSERT_EQ(outputs.size(), inputs.size());
    ASSERT_EQ(batch_stats.size(), inputs.size());
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      arch::RunStats single;
      const auto expected = programmed->run(inputs[k], &single);
      EXPECT_EQ(first_mismatch(expected, outputs[k]), "") << design->name() << " image " << k;
      EXPECT_EQ(batch_stats[k], single) << design->name() << " image " << k;
    }
  }
}

TEST(ProgrammedLayer, RebindingAnEarlierInputMatchesFreshDesignRuns) {
  // The input-binding cache holds one tensor and drops it before binding the
  // next: running A, B, then A again must rebuild A's gather, never reuse B's.
  const nn::DeconvLayerSpec spec{"rebind_probe", 5, 5, 6, 4, 8, 8, 4, 2, 0};
  Rng rng(23);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  Rng rng_a(61), rng_b(62);
  const auto a = workloads::make_input(spec, rng_a, 0, 7);
  const auto b = workloads::make_input(spec, rng_b, 0, 7);
  ASSERT_FALSE(a == b);
  for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                    core::DesignKind::kRed}) {
    const auto design = core::make_design(kind);
    const auto programmed = design->program(spec, kernel);
    for (int threads : {1, 3}) {
      int step = 0;
      for (const Tensor<std::int32_t>* input : {&a, &b, &a}) {
        arch::RunStats expected_stats, stats;
        const auto expected = design->run(spec, *input, kernel, &expected_stats);
        const auto out = programmed->run(*input, &stats, threads);
        EXPECT_EQ(first_mismatch(expected, out), "")
            << design->name() << " step " << step << " at " << threads << " threads";
        EXPECT_EQ(stats, expected_stats) << design->name() << " step " << step;
        ++step;
      }
    }
  }
}

// ---- ThreadPool under the streaming workload shapes ------------------------

TEST(ThreadPool, NestedParallelForFromWorkerLane) {
  // The wavefront shape: an outer parallel_for whose tasks each run an inner
  // parallel_for on the same pool (stage lanes nesting stage tiling). Workers
  // must help drain the nested job instead of deadlocking.
  for (int threads : {1, 2, 4}) {
    perf::ThreadPool pool(threads);
    constexpr std::int64_t kOuter = 6, kInner = 32;
    std::vector<std::vector<std::int64_t>> slots(kOuter,
                                                 std::vector<std::int64_t>(kInner, 0));
    pool.parallel_for(kOuter, [&](std::int64_t o) {
      pool.parallel_for(kInner, [&](std::int64_t i) { slots[static_cast<std::size_t>(o)]
                                                           [static_cast<std::size_t>(i)] = o * kInner + i; });
    });
    std::int64_t sum = 0;
    for (const auto& row : slots) sum = std::accumulate(row.begin(), row.end(), sum);
    EXPECT_EQ(sum, (kOuter * kInner) * (kOuter * kInner - 1) / 2) << threads << " threads";
  }
}

TEST(ThreadPool, ExceptionSelectionDeterministicViaIndexSlots) {
  // The determinism idiom the engine uses for failures: record exceptions in
  // per-index slots and rethrow the first in index order after the join —
  // the surfaced error is then the same for every thread count even when
  // several indices fail near-simultaneously.
  for (int threads : {1, 2, 8}) {
    perf::ThreadPool pool(threads);
    constexpr std::int64_t kN = 16;
    std::vector<std::exception_ptr> errors(kN);
    pool.parallel_for(kN, [&](std::int64_t i) {
      if (i == 3 || i == 11) {
        try {
          throw std::runtime_error("index " + std::to_string(i));
        } catch (...) {
          errors[static_cast<std::size_t>(i)] = std::current_exception();
        }
      }
    });
    std::string surfaced;
    for (const auto& err : errors)
      if (err) {
        try {
          std::rethrow_exception(err);
        } catch (const std::runtime_error& e) {
          surfaced = e.what();
        }
        break;
      }
    EXPECT_EQ(surfaced, "index 3") << threads << " threads";
  }
}

TEST(ThreadPool, ThrowingTaskPropagatesAndPoolStaysUsable) {
  for (int threads : {1, 2, 4}) {
    perf::ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(8,
                          [&](std::int64_t i) {
                            if (i == 2) throw std::runtime_error("boom");
                          }),
        std::runtime_error)
        << threads << " threads";
    // The pool must survive a failed job and run the next one to completion.
    std::atomic<std::int64_t> count{0};
    pool.parallel_for(64, [&](std::int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 64) << threads << " threads";
  }
}

TEST(ThreadPool, ConcurrentJobsFromMultipleCallerThreads) {
  // Several caller threads race independent jobs onto the shared pool — the
  // streaming picture when concurrent batches run against one process-wide
  // pool. Every job must complete every index exactly once.
  constexpr int kCallers = 4;
  constexpr std::int64_t kN = 200;
  std::vector<std::vector<std::int64_t>> slots(kCallers, std::vector<std::int64_t>(kN, 0));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      perf::parallel_for_shared(kN, [&, c](std::int64_t i) {
        slots[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] += i + c;
      });
    });
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c)
    for (std::int64_t i = 0; i < kN; ++i)
      ASSERT_EQ(slots[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)], i + c)
          << "caller " << c << " index " << i;
}

}  // namespace
}  // namespace red::sim
