// Deterministic mutation fuzzing of the campaign layer's two readers of
// on-disk artifacts: json::parse (summaries, record lines, request bodies)
// and TrialRecordReader (whole record files). The corpus is what a small
// campaign writes -- its summary document, its record header and its
// record lines -- and mutations draw from a fixed SplitMix64 stream, so
// every run replays the same ~10^4 inputs per target and a failure
// reproduces from its iteration number alone.
//
// Property: every input either parses or throws std::runtime_error; any
// other exception type, or a crash, fails the test.
#include "campaign/json.hpp"
#include "campaign/campaign.hpp"
#include "campaign/result_sink.hpp"
#include "campaign/spec_cli.hpp"
#include "campaign/trial_record.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

namespace netcons {
namespace {

namespace json = campaign::json;

/// Byte-level mutator over one SplitMix64 stream.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  std::uint64_t below(std::uint64_t bound) { return bound == 0 ? 0 : splitmix64(state_) % bound; }

  /// One to four stacked mutations of `input` (`corpus` feeds splices).
  std::string mutate(std::string input, const std::vector<std::string>& corpus) {
    static const std::vector<std::string> tokens = {
        "{", "}", "[", "]", "\"", ",", ":", "\\", "\\u", "\\ud800", "\\u0000", "\n", "-",
        "-0", "1e", "1e308", "1e-400", "0.5", "18446744073709551615", "18446744073709551616",
        "-9223372036854775809", "null", "true", "false", "\"point\": ", "\"trial\": ",
        "\"seed\": ", "\"n\": ", "[[[[[[[[", "]]]]]]]]"};
    const int rounds = 1 + static_cast<int>(below(4));
    for (int round = 0; round < rounds; ++round) {
      const std::size_t at = below(input.size() + 1);
      switch (below(7)) {
        case 0:  // Flip one bit.
          if (!input.empty()) input[at % input.size()] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // Insert a random byte.
          input.insert(at, 1, static_cast<char>(below(256)));
          break;
        case 2:  // Delete a range.
          input.erase(at, below(16) + 1);
          break;
        case 3:  // Duplicate a range.
          input.insert(at, input.substr(at, below(32) + 1));
          break;
        case 4:  // Insert a token that matters to JSON or the record schema.
          input.insert(at, tokens[below(tokens.size())]);
          break;
        case 5: {  // Splice in part of another corpus entry.
          const std::string& other = corpus[below(corpus.size())];
          const std::size_t from = below(other.size() + 1);
          input.insert(at, other.substr(from, below(64) + 1));
          break;
        }
        default:  // Truncate.
          input.resize(at);
          break;
      }
    }
    return input;
  }

 private:
  std::uint64_t state_;
};

/// What a small faulted campaign writes: its summary JSON, its record
/// header line and one line per trial.
struct Artifacts {
  std::string summary;
  std::string header;
  std::vector<std::string> records;
};

Artifacts campaign_artifacts() {
  campaign::SpecCli cli;
  cli.protocols = {"cycle-cover", "global-star"};
  cli.faults = {"none", "crash:k=1"};
  cli.ns = {6, 10};
  cli.trials = 3;
  cli.seed = 2024;
  const campaign::CampaignSpec spec = *campaign::build_spec(cli);

  Artifacts out;
  out.header = campaign::header_line(campaign::CampaignHeader::describe(spec));
  campaign::RunOptions options;
  options.threads = 1;  // One worker, so on_trial needs no lock.
  options.on_trial = [&](std::size_t point, int trial, std::uint64_t seed,
                         const campaign::TrialOutcome& outcome) {
    out.records.push_back(campaign::record_line({point, trial, seed, outcome}));
  };
  out.summary = campaign::to_json(campaign::run(spec, options));
  return out;
}

/// Every input must parse or throw std::runtime_error (a different
/// exception escapes and fails the test). Returns whether it parsed.
template <typename Parse>
bool parses(Parse&& parse) {
  try {
    parse();
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST(FuzzJson, TenThousandMutationsParseOrThrowRuntimeError) {
  const Artifacts artifacts = campaign_artifacts();
  std::vector<std::string> corpus = artifacts.records;
  corpus.push_back(artifacts.summary);
  corpus.push_back(artifacts.header);
  for (const std::string& document : corpus) {
    ASSERT_TRUE(parses([&] { (void)json::parse(document); })) << document;
  }

  Mutator random(0x6a736f6e66757a7aULL);
  int rejected = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    const std::string input = random.mutate(corpus[random.below(corpus.size())], corpus);
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    if (!parses([&] { (void)json::parse(input); })) ++rejected;
    // The typed readers on top of the parser hold the same contract.
    (void)parses([&] { (void)campaign::parse_record_line(input); });
    (void)parses([&] { (void)campaign::parse_header_line(input); });
  }
  // The mutations reach both outcomes, so the property is not vacuous.
  EXPECT_GT(rejected, 1000);
  EXPECT_LT(rejected, 9900);
}

TEST(FuzzJson, SummaryDocumentMutationsParseOrThrowRuntimeError) {
  const Artifacts artifacts = campaign_artifacts();
  const std::vector<std::string> corpus = {artifacts.summary};
  ASSERT_FALSE(campaign::parse_json(artifacts.summary).empty());
  Mutator random(0x73756d6d617279ULL);
  int rejected = 0;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const std::string input = random.mutate(artifacts.summary, corpus);
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    if (!parses([&] { (void)campaign::parse_json(input); })) ++rejected;
  }
  EXPECT_GT(rejected, 200);
}

TEST(FuzzTrialRecordReader, TenThousandMutatedFilesReadOrThrowRuntimeError) {
  const Artifacts artifacts = campaign_artifacts();
  std::string file_text = artifacts.header + '\n';
  for (const std::string& line : artifacts.records) file_text += line + '\n';
  std::vector<std::string> corpus = artifacts.records;
  corpus.push_back(artifacts.header);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("netcons_test_fuzz_records_" + std::to_string(static_cast<long>(::getpid())) + ".jsonl");
  const auto read_all = [&](const std::string& bytes) {
    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file << bytes;
    }
    campaign::TrialRecordReader reader({path.string()});
    std::size_t records = 0;
    while (reader.next()) ++records;
    return records;
  };
  ASSERT_EQ(read_all(file_text), artifacts.records.size());

  Mutator random(0x7265636f726473ULL);
  int rejected = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    const std::string input = random.mutate(file_text, corpus);
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    if (!parses([&] { (void)read_all(input); })) ++rejected;
  }
  EXPECT_GT(rejected, 1000);
  EXPECT_LT(rejected, 9900);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace
}  // namespace netcons
