// Graph replication as a pipeline (Protocol 9): seed a population with an
// input network on V1, let the randomized replication protocol copy it onto
// fresh nodes, then re-run the copy as the next stage's input -- the
// paper's vision of structures that reproduce themselves through local
// interactions alone.
#include "core/census_engine.hpp"
#include "graph/isomorphism.hpp"
#include "graph/random_graphs.hpp"
#include "protocols/protocols.hpp"

#include <cstdlib>
#include <iostream>

int main(int argc, char** argv) {
  using namespace netcons;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  // Generation 0: a random connected template of 5 nodes.
  Rng rng(seed);
  Graph current = sample_bounded_degree_connected(5, 3, rng);
  std::cout << "generation 0: " << current.order() << " nodes, " << current.edge_count()
            << " edges\n";

  for (int generation = 1; generation <= 3; ++generation) {
    const auto spec = protocols::replication(current);
    const int population = 2 * current.order() + 1;
    // Replication runs its eternal-leader certificate under the census
    // engine: the custom input graph lands through mutable_world() and the
    // engine rebuilds its tables before sampling.
    CensusEngine sim(spec.protocol, population, rng.split());
    spec.initialize(sim.mutable_world());

    Engine::StabilityOptions options;
    options.max_steps = spec.max_steps(population);
    options.certificate = spec.certificate;
    const auto report = sim.run_until_stable(options);
    if (!report.stabilized) {
      std::cerr << "generation " << generation << " failed to stabilize\n";
      return 1;
    }

    // Extract the replica from the V2 nodes.
    const Graph output = sim.world().output_graph(spec.protocol);
    std::vector<int> copied;
    for (int u = 0; u < output.order(); ++u) {
      if (output.degree(u) > 0) copied.push_back(u);
    }
    const Graph replica = output.induced(copied);
    const bool faithful = are_isomorphic(replica, current);
    std::cout << "generation " << generation << ": copied in " << report.convergence_step
              << " interactions; replica " << (faithful ? "isomorphic" : "CORRUPTED")
              << " (" << replica.order() << " nodes, " << replica.edge_count() << " edges)\n";
    if (!faithful) return 1;
    current = replica;  // the copy becomes the next template
  }
  std::cout << "three faithful generations -- replication is heritable.\n";
  return 0;
}
