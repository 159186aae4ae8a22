// Output stability is forever: once a constructor's stability condition is
// certified, running arbitrarily many extra steps must never change the
// output graph again (the definition of stabilization in Section 3.1).
#include "protocols/protocols.hpp"


#include <gtest/gtest.h>

namespace netcons {
namespace {

class FreezeMatrix : public ::testing::TestWithParam<int> {};

TEST_P(FreezeMatrix, OutputNeverChangesAfterCertifiedStability) {
  ProtocolSpec spec;
  int n = 9;
  switch (GetParam()) {
    case 0: spec = protocols::global_star(); break;
    case 1: spec = protocols::cycle_cover(); break;
    case 2: spec = protocols::fast_global_line(); break;
    case 3: spec = protocols::two_rc(); n = 6; break;
    case 4: spec = protocols::c_cliques(3); n = 9; break;
    case 5: spec = protocols::replication(Graph::ring(3)); n = 7; break;
    default: spec = protocols::global_ring(); n = 6; break;
  }
  Simulator sim(spec.protocol, n, 31337);
  if (spec.initialize) spec.initialize(sim.mutable_world());
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps ? spec.max_steps(n) : 0;
  options.certificate = spec.certificate;
  const auto report = sim.run_until_stable(options);
  ASSERT_TRUE(report.stabilized) << spec.protocol.name();

  const Graph before = sim.world().output_graph(spec.protocol);
  sim.run(200'000);  // keep scheduling long after stability
  const Graph after = sim.world().output_graph(spec.protocol);
  EXPECT_EQ(before, after) << spec.protocol.name() << " output changed after stabilization";
}

INSTANTIATE_TEST_SUITE_P(Protocols, FreezeMatrix, ::testing::Range(0, 7));

TEST(Freeze, ConvergenceStepNeverMovesAfterStability) {
  const auto spec = protocols::global_star();
  Simulator sim(spec.protocol, 12, 777);
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(12);
  const auto report = sim.run_until_stable(options);
  ASSERT_TRUE(report.stabilized);
  const auto frozen_at = sim.last_output_change();
  sim.run(100'000);
  EXPECT_EQ(sim.last_output_change(), frozen_at);
}

}  // namespace
}  // namespace netcons
