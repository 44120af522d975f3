#include "roclk/core/inputs.hpp"

#include <gtest/gtest.h>

#include "roclk/variation/sources.hpp"

namespace roclk::core {
namespace {

TEST(Inputs, NoneIsQuiet) {
  const auto inputs = SimulationInputs::none();
  EXPECT_DOUBLE_EQ(inputs.e_ro(123.0), 0.0);
  EXPECT_DOUBLE_EQ(inputs.e_tdc(123.0), 0.0);
  EXPECT_DOUBLE_EQ(inputs.mu(123.0), 0.0);
}

TEST(Inputs, HomogeneousDrivesRoAndTdcIdentically) {
  auto wave = std::make_shared<signal::SineWaveform>(12.8, 1600.0);
  const auto inputs = SimulationInputs::homogeneous(wave, 3.0);
  for (double t : {0.0, 100.0, 987.0}) {
    EXPECT_DOUBLE_EQ(inputs.e_ro(t), wave->at(t));
    EXPECT_DOUBLE_EQ(inputs.e_tdc(t), wave->at(t));
  }
  EXPECT_DOUBLE_EQ(inputs.mu(0.0), 3.0);
  EXPECT_DOUBLE_EQ(inputs.mu(5000.0), 3.0);
}

TEST(Inputs, HarmonicShortcut) {
  const auto inputs = SimulationInputs::harmonic(12.8, 1600.0, -2.0);
  EXPECT_NEAR(inputs.e_ro(400.0), 12.8, 1e-9);  // quarter period
  EXPECT_DOUBLE_EQ(inputs.mu(0.0), -2.0);
}

TEST(Inputs, NullWaveformRejected) {
  EXPECT_THROW((void)SimulationInputs::homogeneous(nullptr),
               std::logic_error);
}

TEST(Inputs, SampleEvaluatesSignalsOnTheRunGrid) {
  const auto inputs = SimulationInputs::harmonic(12.8, 1600.0, -2.5);
  const InputBlock block = inputs.sample(64, 32.0);
  ASSERT_EQ(block.width, 1u);
  ASSERT_EQ(block.cycles, 64u);
  ASSERT_EQ(block.e_ro.size(), 64u);
  for (std::size_t k = 0; k < block.cycles; ++k) {
    const double t = static_cast<double>(k) * 32.0;
    EXPECT_EQ(block.e_ro[k], inputs.e_ro(t)) << "k = " << k;
    EXPECT_EQ(block.e_tdc[k], inputs.e_tdc(t)) << "k = " << k;
    EXPECT_EQ(block.mu[k], inputs.mu(t)) << "k = " << k;
  }
}

TEST(Inputs, SampleRejectsNonPositiveDt) {
  const auto inputs = SimulationInputs::none();
  EXPECT_THROW((void)inputs.sample(8, 0.0), std::logic_error);
  const InputBlock empty = inputs.sample(0, 64.0);
  EXPECT_TRUE(empty.empty());
}

TEST(Inputs, FromVariationSourceScalesBySetpoint) {
  auto source = std::shared_ptr<const variation::VariationSource>(
      variation::DieToDieProcess::with_offset(0.1).clone());
  const auto inputs = SimulationInputs::from_variation_source(source, 64.0);
  EXPECT_NEAR(inputs.e_ro(0.0), 6.4, 1e-12);
  EXPECT_NEAR(inputs.e_tdc(0.0), 6.4, 1e-12);
  EXPECT_DOUBLE_EQ(inputs.mu(0.0), 0.0);
}

TEST(Inputs, FromVariationSourceTakesWorstTdcSite) {
  // A hotspot in one corner: the worst TDC (max variation) defines e_tdc,
  // while the central RO sees less.
  auto hotspot = std::make_shared<variation::TemperatureHotspot>(
      0.2, variation::DiePoint{5.0 / 6.0, 5.0 / 6.0}, 0.1, 0.0, 1.0);
  const auto inputs = SimulationInputs::from_variation_source(
      hotspot, 64.0, {0.5, 0.5}, 3);
  const double t = 100.0;
  EXPECT_GT(inputs.e_tdc(t), 0.15 * 64.0);  // near-peak at hot sensor
  EXPECT_LT(inputs.e_ro(t), inputs.e_tdc(t));
}

}  // namespace
}  // namespace roclk::core
