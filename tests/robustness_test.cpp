// Systematic error-path coverage of the public APIs: every validated entry
// point must reject malformed arguments with the documented exception type,
// and never crash or silently accept them.
#include <gtest/gtest.h>

#include "red/arch/chip.h"
#include "red/arch/conv_engine.h"
#include "red/arch/design.h"
#include "red/common/error.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/nn/deconv_reference.h"
#include "red/nn/gradient.h"
#include "red/report/json.h"
#include "red/sim/balance.h"
#include "red/sim/pipeline.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/networks.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"

namespace red {
namespace {

nn::DeconvLayerSpec good_spec() { return nn::DeconvLayerSpec{"ok", 4, 4, 3, 2, 3, 3, 2, 1, 0}; }

TEST(Robustness, DesignsRejectMismatchedTensors) {
  const auto spec = good_spec();
  Rng rng(1);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  Tensor<std::int32_t> wrong_input(Shape4{1, 2, 4, 4});
  Tensor<std::int32_t> wrong_kernel(Shape4{3, 3, 3, 3});
  for (const auto& design : core::make_all_designs()) {
    EXPECT_THROW((void)design->run(spec, wrong_input, kernel), ContractViolation)
        << design->name();
    EXPECT_THROW((void)design->run(spec, input, wrong_kernel), ContractViolation)
        << design->name();
  }
}

TEST(Robustness, DesignsRejectOutOfRangeWeights) {
  // 8-bit weights: 128 is out of range and must be caught at programming.
  const auto spec = good_spec();
  Rng rng(2);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  Tensor<std::int32_t> kernel(spec.kernel_shape(), 128);
  for (const auto& design : core::make_all_designs())
    EXPECT_THROW((void)design->run(spec, input, kernel), ContractViolation) << design->name();
}

TEST(Robustness, DesignsRejectOutOfRangeActivations) {
  const auto spec = good_spec();
  Rng rng(3);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  Tensor<std::int32_t> input(spec.input_shape(), 1 << 12);  // >> 8-bit
  for (const auto& design : core::make_all_designs())
    EXPECT_THROW((void)design->run(spec, input, kernel), ContractViolation) << design->name();
}

TEST(Robustness, InvalidSpecsFailBeforeAnyWork) {
  auto spec = good_spec();
  spec.kh = 0;
  for (const auto& design : core::make_all_designs()) {
    EXPECT_THROW((void)design->activity(spec), ConfigError) << design->name();
    EXPECT_THROW((void)design->cost(spec), ConfigError) << design->name();
  }
  EXPECT_THROW((void)nn::deconv_reference(spec, Tensor<std::int32_t>{}, Tensor<std::int32_t>{}),
               ConfigError);
}

TEST(Robustness, ConfigErrorsCarryActionableMessages) {
  arch::DesignConfig cfg;
  cfg.mux_ratio = 0;
  try {
    cfg.validate();
    FAIL() << "should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("mux_ratio"), std::string::npos);
  }
  auto spec = good_spec();
  spec.pad = spec.kh;  // > K-1
  try {
    spec.validate();
    FAIL() << "should have thrown";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(spec.name), std::string::npos);  // names the layer
    EXPECT_NE(what.find("pad"), std::string::npos);      // names the field
  }
}

TEST(Robustness, JsonNestingBombIsAConfigErrorNotAStackOverflow) {
  const auto nested = [](int depth, char open, char close) {
    return std::string(static_cast<std::size_t>(depth), open) +
           std::string(static_cast<std::size_t>(depth), close);
  };
  EXPECT_NO_THROW((void)report::parse_json(nested(report::kMaxJsonDepth, '[', ']')));
  EXPECT_THROW((void)report::parse_json(nested(report::kMaxJsonDepth + 1, '[', ']')),
               ConfigError);
  std::string objects;
  for (int i = 0; i <= report::kMaxJsonDepth; ++i) objects += "{\"k\":";
  EXPECT_THROW((void)report::parse_json(objects + "1" + std::string(report::kMaxJsonDepth + 1, '}')),
               ConfigError);
  EXPECT_THROW((void)report::parse_json(std::string(100000, '[')), ConfigError);
}

TEST(Robustness, ConvEngineRejectsBadGeometry) {
  nn::ConvLayerSpec conv{"bad", 2, 2, 1, 1, 5, 5, 1, 0};  // kernel > input
  const arch::ConvEngine engine{arch::DesignConfig{}};
  EXPECT_THROW((void)engine.activity(conv), ConfigError);
}

TEST(Robustness, PipelineRejectsEmptyStack) {
  EXPECT_THROW((void)sim::evaluate_pipeline(core::DesignKind::kRed, {}), ContractViolation);
}

TEST(Robustness, BalanceRejectsNonPositiveBudget) {
  arch::ChipConfig chip;
  EXPECT_THROW((void)sim::balance_pipeline(core::DesignKind::kRed,
                                           workloads::sngan_generator(), chip, 0),
               ContractViolation);
}

TEST(Robustness, GradientsRejectWrongShapes) {
  const auto spec = good_spec();
  Tensor<std::int32_t> bad(Shape4{1, 1, 1, 1});
  Rng rng(4);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  EXPECT_THROW((void)nn::deconv_input_gradient(spec, bad, kernel), ContractViolation);
  EXPECT_THROW((void)nn::deconv_kernel_gradient(spec, bad, bad), ContractViolation);
}

TEST(Robustness, ExtremeSingletonLayerWorksEverywhere) {
  // The degenerate 1x1 everything case must flow through the whole stack.
  nn::DeconvLayerSpec spec{"tiny", 1, 1, 1, 1, 1, 1, 1, 0, 0};
  spec.validate();
  Rng rng(5);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const auto golden = nn::deconv_reference(spec, input, kernel);
  for (const auto& design : core::make_all_designs()) {
    const auto out = design->run(spec, input, kernel);
    EXPECT_EQ(out, golden) << design->name();
    const auto cost = design->cost(spec);
    EXPECT_GT(cost.total_latency().value(), 0.0) << design->name();
  }
}

TEST(Robustness, LargeStrideSmallKernelEverywhere) {
  // K < s: structurally-gapped outputs through every design and the cost
  // model (empty modes dropped in RED).
  nn::DeconvLayerSpec spec{"gappy", 2, 3, 2, 2, 2, 3, 5, 1, 2};
  spec.validate();
  Rng rng(6);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const auto golden = nn::deconv_reference(spec, input, kernel);
  for (const auto& design : core::make_all_designs()) {
    EXPECT_EQ(first_mismatch(golden, design->run(spec, input, kernel)), "") << design->name();
    EXPECT_GT(design->cost(spec).total_area().value(), 0.0) << design->name();
  }
}

}  // namespace
}  // namespace red
