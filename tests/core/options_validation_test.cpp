// PrivImOptions::Validate() is the single validation gate shared by the
// CLIs, the serving engine and RunPrivIm itself — bad configurations must
// fail loudly here instead of crashing (or silently misbehaving) deep in
// the pipeline.

#include <cmath>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "privim/core/pipeline.h"

namespace privim {
namespace {

TEST(OptionsValidationTest, DefaultsAreValid) {
  EXPECT_TRUE(PrivImOptions().Validate().ok());
}

TEST(OptionsValidationTest, RejectsBadSamplingParameters) {
  PrivImOptions options;
  options.subgraph_size = 1;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.frequency_threshold = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.restart_probability = 0.0;  // tau in (0, 1]
  EXPECT_FALSE(options.Validate().ok());
  options.restart_probability = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options.restart_probability = 1.0;
  EXPECT_TRUE(options.Validate().ok());

  options = PrivImOptions();
  options.sampling_rate = 1.5;  // q <= 1; q <= 0 selects the default
  EXPECT_FALSE(options.Validate().ok());
  options.sampling_rate = -1.0;
  EXPECT_TRUE(options.Validate().ok());

  options = PrivImOptions();
  options.walk_length = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.decay = -0.5;
  EXPECT_FALSE(options.Validate().ok());
  options.decay = 0.0;  // uniform frequency sampling is legal
  EXPECT_TRUE(options.Validate().ok());

  options = PrivImOptions();
  options.boundary_divisor = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.theta = 0;
  EXPECT_FALSE(options.Validate().ok());

  // NaN passes "q > 1" and "q > 0" alike, so it used to fall through to the
  // 256/|V| default; -inf would select the default the same way.
  for (double q : {std::nan(""), -std::numeric_limits<double>::infinity()}) {
    options = PrivImOptions();
    options.sampling_rate = q;
    const Status status = options.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find("sampling_rate"), std::string::npos);
  }
}

TEST(OptionsValidationTest, RejectsBadTrainingParameters) {
  PrivImOptions options;
  options.gnn.num_layers = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.batch_size = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.iterations = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.learning_rate = 0.0f;
  EXPECT_FALSE(options.Validate().ok());
  options.learning_rate = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.clip_bound = -1.0f;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.seed_set_size = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(OptionsValidationTest, PrivacyParameterEdgeCases) {
  PrivImOptions options;
  // epsilon <= 0 / +inf mean "non-private"; only NaN is rejected.
  options.epsilon = 0.0;
  EXPECT_TRUE(options.Validate().ok());
  options.epsilon = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(options.Validate().ok());
  options.epsilon = std::nan("");
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  // delta <= 0 selects 1/|V_train|; delta >= 1 is not a failure
  // probability.
  options.delta = 0.0;
  EXPECT_TRUE(options.Validate().ok());
  options.delta = 1.0;
  EXPECT_FALSE(options.Validate().ok());
  options.delta = std::nan("");
  EXPECT_FALSE(options.Validate().ok());
}

TEST(OptionsValidationTest, CheckpointConsistency) {
  PrivImOptions options;
  options.checkpoint_every = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.checkpoint_keep = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = PrivImOptions();
  options.resume = true;  // resume without a checkpoint_dir
  const Status status = options.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  options.checkpoint_dir = "/tmp/ckpt";
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace privim
