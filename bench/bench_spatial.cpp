// bench_spatial: the spatial workload's O(1) scaling contract, measured.
//
// The proximity sampler promises O(1) expected next() regardless of the
// population (grid-bucketed alias table + rejection), and the weighted
// census path promises per-effective-interaction cost that does not grow
// with n. Both are swept over n = 2^8 .. 2^14 and reported as
// ns-per-operation scaling curves; a curve that bends upward is a
// regression in the cell bucketing or the thinning acceptance rate.
//
// Usage: bench_spatial [--samples K] [--effective K] [--json FILE]
//
// --json FILE writes the machine-readable metrics consumed by the nightly
// bench workflow (tools/compare_bench.py). The sampler curve lands under
// "scaling_curve" (lower-is-better ns keyed n_<population>, held flat by
// the --flat-factor gate -- the O(1) next() acceptance bar). The weighted
// census path lands under "throughput" as effective interactions per
// second per population (higher-is-better, gated against the baseline):
// its per-interaction cost is O(1) algorithmically but rises with the
// working-set size once the census buckets outgrow cache, so asserting
// cross-n flatness would gate on the memory hierarchy, not the code.
#include "bench_help.hpp"
#include "campaign/registry.hpp"
#include "core/census_engine.hpp"
#include "sched/proximity.hpp"
#include "util/table.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace netcons;

namespace {

double elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
}

ProximityParams bench_params() {
  ProximityParams params;  // the spec's defaults: alpha=2, r=0.1, uniform
  return params;
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_spatial [--samples K] [--effective K] [--json FILE]\n"
    "\n"
    "Proximity sampler and weighted census scaling over n = 2^8 .. 2^14.\n"
    "  --samples K    sampler draws per population size (default 1000000)\n"
    "  --effective K  census effective-interaction budget (default 20000)\n"
    "  --json FILE    write the metrics\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  std::uint64_t samples = 1000000;    // sampler draws per population size
  std::uint64_t effective = 20000;    // census effective-interaction budget
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--effective") == 0 && i + 1 < argc) {
      effective = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }

  const std::vector<int> ns = {256, 512, 1024, 2048, 4096, 8192, 16384};
  const ProtocolSpec protocol = *campaign::make_protocol("cycle-cover");

  std::cout << "spatial scaling: proximity:alpha=2:r=0.1:layout=uniform, " << samples
            << " sampler draws + " << effective
            << " weighted-census effective interactions per point\n\n";

  TextTable table({"n", "build ms", "sample ns", "census ns/effective"});
  std::vector<double> sample_ns;
  std::vector<double> census_ns;
  for (const int n : ns) {
    // --- sampler: ns per next()-equivalent draw --------------------------
    ProximityScheduler scheduler(bench_params());
    Rng rng(trial_seed(0x59A7ull, static_cast<std::uint64_t>(n)));
    const auto build_start = std::chrono::steady_clock::now();
    SchedulerWeightModel* model = scheduler.weight_model(rng, n);
    const double build_ms = elapsed_ns(build_start) / 1e6;
    if (model == nullptr) {
      std::cerr << "proximity scheduler exported no weight model\n";
      return 1;
    }
    std::uint64_t sink = 0;  // keep the draws observable
    const auto sample_start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < samples; ++i) {
      const Encounter e = model->sample(rng);
      sink += static_cast<std::uint64_t>(e.first) + static_cast<std::uint64_t>(e.second);
    }
    const double per_sample = elapsed_ns(sample_start) / static_cast<double>(samples);
    sample_ns.push_back(per_sample);

    // --- weighted census: ns per effective interaction -------------------
    // A fixed effective budget, well below cycle-cover's stabilization
    // point at every swept n, so the loop never idles at quiescence.
    CensusEngine engine(protocol.protocol, n,
                        trial_seed(0xCE45ull, static_cast<std::uint64_t>(n)),
                        std::make_unique<ProximityScheduler>(bench_params()));
    const auto census_start = std::chrono::steady_clock::now();
    while (engine.effective_steps() < effective && !engine.is_quiescent()) {
      (void)engine.step();
    }
    const double census_elapsed = elapsed_ns(census_start);
    const double per_effective =
        engine.effective_steps() > 0
            ? census_elapsed / static_cast<double>(engine.effective_steps())
            : 0.0;
    census_ns.push_back(per_effective);

    table.add_row({TextTable::integer(static_cast<std::uint64_t>(n)),
                   TextTable::num(build_ms), TextTable::num(per_sample),
                   TextTable::num(per_effective)});
    if (sink == 0xFFFFFFFFFFFFFFFFull) std::cout << "";  // defeat dead-code elision
  }
  std::cout << table;

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << "{\n  \"bench\": \"spatial_scaling\",\n"
         << "  \"scheduler\": \"proximity:alpha=2:r=0.1:layout=uniform\",\n"
         << "  \"samples\": " << samples << ",\n"
         << "  \"effective_target\": " << effective << ",\n"
         << "  \"scaling_curve\": {\n    \"proximity_sample_ns\": {";
    for (std::size_t i = 0; i < ns.size(); ++i) {
      file << (i == 0 ? "" : ", ") << "\"n_" << ns[i] << "\": " << sample_ns[i];
    }
    file << "}\n  },\n  \"throughput\": {\n";
    for (std::size_t i = 0; i < ns.size(); ++i) {
      const double per_second = census_ns[i] > 0.0 ? 1e9 / census_ns[i] : 0.0;
      file << "    \"weighted_census_effective_per_s_n_" << ns[i] << "\": " << per_second
           << (i + 1 < ns.size() ? ",\n" : "\n");
    }
    file << "  }\n}\n";
    file.flush();
    if (!file) {
      std::cerr << "failed to write " << json_path << '\n';
      return 1;
    }
    std::cout << "\nwrote " << json_path << '\n';
  }
  return 0;
}
