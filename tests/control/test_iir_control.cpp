#include "roclk/control/iir_control.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>

#include "roclk/signal/filter.hpp"

namespace roclk::control {
namespace {

TEST(IirConfig, PaperParameterisationIsValid) {
  const auto cfg = paper_iir_config();
  EXPECT_TRUE(validate_iir_config(cfg).is_ok());
  EXPECT_DOUBLE_EQ(cfg.k_exp, 8.0);
  EXPECT_DOUBLE_EQ(cfg.k_star, 0.25);
  ASSERT_EQ(cfg.taps.size(), 6u);
  // k = {2, 1, 1/2, 1/4, 1/8, 1/8}; sum = 4 = 1/k* (eq. 10).
  double sum = 0.0;
  for (double k : cfg.taps) sum += k;
  EXPECT_DOUBLE_EQ(sum, 4.0);
}

TEST(IirConfig, RejectsNonPowerOfTwoGains) {
  IirConfig cfg = paper_iir_config();
  cfg.taps[0] = 3.0;
  EXPECT_FALSE(validate_iir_config(cfg).is_ok());

  IirConfig bad_kexp = paper_iir_config();
  bad_kexp.k_exp = 6.0;
  EXPECT_FALSE(validate_iir_config(bad_kexp).is_ok());

  IirConfig bad_kstar = paper_iir_config();
  bad_kstar.k_star = 0.3;
  EXPECT_FALSE(validate_iir_config(bad_kstar).is_ok());
}

TEST(IirConfig, RejectsEq10Violation) {
  IirConfig cfg = paper_iir_config();
  cfg.k_star = 0.125;  // 1/sum(k) is 1/4, not 1/8
  EXPECT_FALSE(validate_iir_config(cfg).is_ok());
  // A consistent alternative set passes: k = {1, 1}, k* = 1/2.
  IirConfig alt;
  alt.taps = {1.0, 1.0};
  alt.k_star = 0.5;
  alt.k_exp = 8.0;
  EXPECT_TRUE(validate_iir_config(alt).is_ok());
}

TEST(IirConfig, RejectsEmptyTapsAndFractionalKexp) {
  IirConfig cfg;
  cfg.taps.clear();
  EXPECT_FALSE(validate_iir_config(cfg).is_ok());
  IirConfig frac = paper_iir_config();
  frac.k_exp = 0.5;
  EXPECT_FALSE(validate_iir_config(frac).is_ok());
}

TEST(IirConfig, RejectsNonIntegratorDenominatorAtConstruction) {
  // D(1) = 1/k* - sum(k_i): violating eq. 10 leaves the denominator
  // without its z = 1 integrator pole (eq. 8), so both controller
  // implementations must refuse to construct.
  IirConfig cfg;
  cfg.taps = {1.0, 1.0};
  cfg.k_star = 1.0;  // D(1) = 1 - 2 = -1 != 0
  cfg.k_exp = 8.0;
  const Status status = validate_iir_config(cfg);
  ASSERT_FALSE(status.is_ok());
  EXPECT_THROW(IirControlHardware{cfg}, std::logic_error);
  EXPECT_THROW(IirControlReference{cfg}, std::logic_error);
}

TEST(IirConfig, RejectsJuryUnstableFilterAtConstruction) {
  // taps = {2, -1}, k* = 1 satisfies eq. 10 (sum = 1) and eq. 8, but
  // D(z) = 1 - 2 z^-1 + z^-2 = (1 - z^-1)^2: after dividing out the
  // designed integrator pole the remaining root sits ON the unit circle,
  // so the filter is Jury-unstable and construction must fail.
  IirConfig cfg;
  cfg.taps = {2.0, -1.0};
  cfg.k_star = 1.0;
  cfg.k_exp = 8.0;
  const Status status = validate_iir_config(cfg);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("Jury-unstable"), std::string::npos)
      << status.message();
  EXPECT_THROW(IirControlHardware{cfg}, std::logic_error);
  EXPECT_THROW(IirControlReference{cfg}, std::logic_error);
}

TEST(IirPolynomials, MatchEquation9) {
  const auto [n, d] = iir_polynomials(paper_iir_config());
  // N(z) = z^-1.
  EXPECT_DOUBLE_EQ(n.coefficient(0), 0.0);
  EXPECT_DOUBLE_EQ(n.coefficient(1), 1.0);
  // D(z) = 4 - 2z^-1 - z^-2 - 0.5z^-3 - 0.25z^-4 - 0.125z^-5 - 0.125z^-6.
  EXPECT_DOUBLE_EQ(d.coefficient(0), 4.0);
  EXPECT_DOUBLE_EQ(d.coefficient(1), -2.0);
  EXPECT_DOUBLE_EQ(d.coefficient(2), -1.0);
  EXPECT_DOUBLE_EQ(d.coefficient(3), -0.5);
  EXPECT_DOUBLE_EQ(d.coefficient(6), -0.125);
  // eq. 8: D(1) = 0, N(1) = 1.
  EXPECT_NEAR(d.at_one(), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(n.at_one(), 1.0);
}

TEST(IirReference, StepMatchesTransferFunctionImpulse) {
  // Drive the recursion with an impulse; compare against long division of
  // eq. 9 (both around a zero equilibrium).
  IirControlReference ref;
  ref.reset(0.0);
  const auto tf = iir_transfer_function(paper_iir_config());
  const auto expected = tf.impulse_response(64);
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const double x = (k == 0) ? 1.0 : 0.0;
    EXPECT_NEAR(ref.step(x), expected[k], 1e-12) << "sample " << k;
  }
}

TEST(IirReference, EquilibriumHoldsAtInitialOutput) {
  IirControlReference ref;
  ref.reset(64.0);
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(ref.step(0.0), 64.0);
  }
}

TEST(IirReference, IntegratesConstantError) {
  // A persistent positive delta must grow the output without bound
  // (type-1 loop: the filter contains an integrator).
  IirControlReference ref;
  ref.reset(64.0);
  double y = 0.0;
  for (int i = 0; i < 50; ++i) y = ref.step(1.0);
  const double y50 = y;
  for (int i = 0; i < 50; ++i) y = ref.step(1.0);
  EXPECT_GT(y, y50 + 5.0);
}

TEST(IirHardware, EquilibriumExactAtPaperSetpoint) {
  // W = c * k_exp = 512 must be a fixed point of the integer datapath.
  IirControlHardware hw;
  hw.reset(64.0);
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(hw.step(0.0), 64.0);
  }
}

TEST(IirHardware, MinimumErrorPropagates) {
  // The paper chose k_exp = 8 so that |delta| = 1 still moves the filter.
  IirControlHardware hw;
  hw.reset(64.0);
  hw.step(1.0);
  double moved = 64.0;
  for (int i = 0; i < 16; ++i) moved = hw.step(1.0);
  EXPECT_GT(moved, 64.0);
}

TEST(IirHardware, TracksReferenceOverShortHorizon) {
  IirControlReference ref;
  IirControlHardware hw;
  ref.reset(64.0);
  hw.reset(64.0);
  double worst = 0.0;
  for (int i = 0; i < 50; ++i) {
    // Integer-valued sinusoidal error like the closed loop produces.
    const double delta =
        std::round(6.0 * std::sin(2.0 * 3.14159265358979 * i / 50.0));
    worst = std::max(worst, std::fabs(ref.step(delta) - hw.step(delta)));
  }
  // k_exp = 8 keeps short-horizon rounding error within ~2 stages.
  EXPECT_LT(worst, 2.5);
}

TEST(IirHardware, OpenLoopRoundingDriftIsSlow) {
  // The filter contains an integrator, so truncation bias accumulates when
  // run OPEN loop; the closed loop absorbs it (integration tests).  Here we
  // bound the drift rate itself: well under one stage per 10 cycles.
  IirControlReference ref;
  IirControlHardware hw;
  ref.reset(64.0);
  hw.reset(64.0);
  const int n = 1000;
  double final_gap = 0.0;
  for (int i = 0; i < n; ++i) {
    const double delta =
        std::round(6.0 * std::sin(2.0 * 3.14159265358979 * i / 50.0));
    final_gap = std::fabs(ref.step(delta) - hw.step(delta));
  }
  EXPECT_LT(final_gap / n, 0.1);
}

TEST(IirHardware, LargerKexpShrinksRoundingError) {
  auto run = [](double k_exp) {
    IirConfig cfg = paper_iir_config();
    cfg.k_exp = k_exp;
    IirControlReference ref{cfg};
    IirControlHardware hw{cfg};
    ref.reset(64.0);
    hw.reset(64.0);
    double acc = 0.0;
    for (int i = 0; i < 300; ++i) {
      const double delta =
          std::round(5.0 * std::sin(2.0 * 3.14159265358979 * i / 40.0));
      acc += std::fabs(ref.step(delta) - hw.step(delta));
    }
    return acc / 300.0;
  };
  const double err1 = run(1.0);
  const double err16 = run(16.0);
  EXPECT_LT(err16, err1);
}

TEST(IirHardware, CloneIsIndependent) {
  IirControlHardware hw;
  hw.reset(64.0);
  hw.step(3.0);
  auto copy = hw.clone();
  // Same state right after cloning...
  EXPECT_DOUBLE_EQ(copy->step(0.0), hw.step(0.0));
  // ...then divergent inputs give divergent outputs.
  copy->step(10.0);
  hw.step(-10.0);
  EXPECT_NE(copy->step(0.0), hw.step(0.0));
}

TEST(IirHardware, StateAccessorExposesScaledRegisters) {
  IirControlHardware hw;
  hw.reset(64.0);
  ASSERT_EQ(hw.state().size(), 6u);
  for (auto w : hw.state()) EXPECT_EQ(w, 512);  // 64 * k_exp
}

// Property: for several valid coefficient sets, the recursion's DC
// behaviour (integrator) and equilibrium hold.
struct CoeffCase {
  std::vector<double> taps;
  double k_star;
};

/// Prints a case as taps_<taps>_kstar_<k*>.  gtest_discover_tests names
/// each ctest after the printed parameter; without this the listing shows
/// the struct's raw bytes, heap pointers included, which change from run
/// to run.
void PrintTo(const CoeffCase& c, std::ostream* os) {
  *os << "taps";
  for (const double tap : c.taps) *os << '_' << tap;
  *os << "_kstar_" << c.k_star;
}

class IirCoefficientSets : public ::testing::TestWithParam<CoeffCase> {};

TEST_P(IirCoefficientSets, ValidAndEquilibriumStable) {
  IirConfig cfg;
  cfg.taps = GetParam().taps;
  cfg.k_star = GetParam().k_star;
  cfg.k_exp = 8.0;
  ASSERT_TRUE(validate_iir_config(cfg).is_ok());
  IirControlReference ref{cfg};
  ref.reset(100.0);
  for (int i = 0; i < 32; ++i) {
    EXPECT_NEAR(ref.step(0.0), 100.0, 1e-9);
  }
  const auto [n, d] = iir_polynomials(cfg);
  EXPECT_NEAR(d.at_one(), 0.0, 1e-12);
  EXPECT_NE(n.at_one(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sets, IirCoefficientSets,
    ::testing::Values(CoeffCase{{1.0}, 1.0}, CoeffCase{{1.0, 1.0}, 0.5},
                      CoeffCase{{2.0, 1.0, 1.0}, 0.25},
                      CoeffCase{{2.0, 1.0, 0.5, 0.25, 0.125, 0.125}, 0.25},
                      CoeffCase{{4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.125},
                                0.125}));

// ------------------------------------------------------------ anti-windup

constexpr double kAwMin = 8.0;
constexpr double kAwMax = 1024.0;

IirConfig windup_config() {
  IirConfig cfg = paper_iir_config();
  cfg.anti_windup = IirOutputClamp{kAwMin, kAwMax};
  return cfg;
}

TEST(IirAntiWindup, ValidateRejectsBadClampRanges) {
  IirConfig cfg = paper_iir_config();
  cfg.anti_windup = IirOutputClamp{10.0, 5.0};  // empty range
  EXPECT_FALSE(validate_iir_config(cfg).is_ok());
  cfg.anti_windup =
      IirOutputClamp{0.0, std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(validate_iir_config(cfg).is_ok());
  EXPECT_TRUE(validate_iir_config(windup_config()).is_ok());
}

TEST(IirAntiWindup, ReturnValueIsUnchangedOnlyStateIsBounded) {
  IirControlHardware with{windup_config()};
  IirControlHardware without{paper_iir_config()};
  with.reset(64.0);
  without.reset(64.0);
  // First saturating step: the *outputs* must agree (the loop applies its
  // own clamp); only the stored state may differ.
  const double big = 500.0;
  EXPECT_DOUBLE_EQ(with.step(big), without.step(big));
}

TEST(IirAntiWindup, StateStaysBoundedWhileOutputIsPinnedAtTheClamp) {
  IirControlHardware with{windup_config()};
  IirControlHardware without{paper_iir_config()};
  with.reset(64.0);
  without.reset(64.0);
  // Sustained huge delta, as a stuck-at-max sensor would produce: the
  // unprotected integrator winds far beyond the clamp; the protected
  // newest state is back-calculated to it every cycle.
  const double kexp = windup_config().k_exp;
  for (int i = 0; i < 200; ++i) {
    (void)with.step(900.0);
    (void)without.step(900.0);
    EXPECT_LE(static_cast<double>(with.state()[0]), kAwMax * kexp)
        << "cycle " << i;
  }
  EXPECT_GT(static_cast<double>(without.state()[0]), kAwMax * kexp);
}

TEST(IirAntiWindup, RecoveryDoesNotOvershootBeyondTheNoWindupTrajectory) {
  IirControlHardware with{windup_config()};
  IirControlHardware without{paper_iir_config()};
  with.reset(64.0);
  without.reset(64.0);
  // Wind both up against the top clamp, then release with a small delta.
  for (int i = 0; i < 100; ++i) {
    (void)with.step(900.0);
    (void)without.step(900.0);
  }
  // On release the wound-up controller keeps commanding past the clamp for
  // many cycles (it must first unwind its state); the anti-windup one
  // re-enters the linear region at once and never exceeds the wound-up
  // command on the way down.
  std::size_t pinned_with = 0;
  std::size_t pinned_without = 0;
  for (int i = 0; i < 200; ++i) {
    const double yw = with.step(0.0);
    const double yo = without.step(0.0);
    if (yw > kAwMax) ++pinned_with;
    if (yo > kAwMax) ++pinned_without;
    EXPECT_LE(yw, yo + 1e-9) << "cycle " << i;
  }
  EXPECT_LT(pinned_with, pinned_without);
}

TEST(IirAntiWindup, ReferenceImplementationBoundsItsOutputStateToo) {
  IirConfig cfg = windup_config();
  IirControlReference with{cfg};
  IirControlReference without{paper_iir_config()};
  with.reset(64.0);
  without.reset(64.0);
  for (int i = 0; i < 100; ++i) {
    (void)with.step(900.0);
    (void)without.step(900.0);
  }
  double released_with = 0.0;
  double released_without = 0.0;
  for (int i = 0; i < 50; ++i) {
    released_with = with.step(0.0);
    released_without = without.step(0.0);
  }
  // The protected reference unwinds at least as fast.
  EXPECT_LE(released_with, released_without + 1e-9);
}

TEST(IirAntiWindup, DisengagedConfigMatchesLegacyBitForBit) {
  // anti_windup is optional and disengaged by default: the published
  // datapath must be untouched, state included.
  IirControlHardware legacy{paper_iir_config()};
  IirConfig cfg = paper_iir_config();
  cfg.anti_windup.reset();
  IirControlHardware current{cfg};
  legacy.reset(64.0);
  current.reset(64.0);
  for (int i = 0; i < 300; ++i) {
    const double delta = 700.0 * std::sin(0.05 * i);
    ASSERT_EQ(legacy.step(delta), current.step(delta)) << "cycle " << i;
    ASSERT_EQ(legacy.state(), current.state()) << "cycle " << i;
  }
}

}  // namespace
}  // namespace roclk::control
