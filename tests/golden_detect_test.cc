// Golden-file regression tests for the Detect probability pipeline and
// for training.
//
// A fixed simulated corpus and a fixed-seed model make the outputs a pure
// deterministic function of the code:
//   - GoldenDetectTest trains 0 epochs (the normalizer is fitted, the
//     weights stay at their seeded init) and pins the merged candidate
//     probabilities in tests/golden/detect_probs.txt;
//   - GoldenTrainTest trains 1 autoencoder and 1 detector epoch at batch 8
//     and pins every TrainingLog series plus a CRC-32 of the saved model's
//     bytes in tests/golden/train_log.txt, so forward, backward and the
//     optimizer are all covered.
// Any numeric drift — an op reordered, a reduction changed, a normalizer
// tweak, a gradient kernel that rounds differently — fails with a
// per-line diff.
//
// To regenerate after an intentional change:
//   LEAD_UPDATE_GOLDEN=1 ./build/tests/golden_detect_test
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/lead.h"
#include "eval/harness.h"

namespace lead {
namespace {

#ifndef LEAD_GOLDEN_DIR
#error "build must define LEAD_GOLDEN_DIR"
#endif

constexpr int kMaxTrajectories = 6;

std::string GoldenPath(const char* name) {
  return std::string(LEAD_GOLDEN_DIR) + "/" + name;
}

// The golden corpus: a small fixed world and 40 simulated days.
eval::ExperimentConfig GoldenConfig() {
  eval::ExperimentConfig config = eval::DefaultConfig(1.0);
  config.world.num_background_pois = 1500;
  config.world.num_loading_facilities = 8;
  config.world.num_unloading_facilities = 12;
  config.world.num_rest_areas = 12;
  config.world.num_depots = 6;
  config.dataset.num_trajectories = 40;
  config.dataset.num_trucks = 20;
  config.sim.sample_interval_mean_s = 240.0;
  config.lead.train.autoencoder_epochs = 0;
  config.lead.train.detector_epochs = 0;
  return config;
}

// %.9g round-trips a float exactly, so string equality is bit equality.
std::string FloatText(float value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  return buf;
}

// One line per candidate: "<trajectory_id> <flat_index> <probability>".
std::vector<std::string> DetectLines() {
  const eval::ExperimentConfig config = GoldenConfig();
  auto data = eval::BuildExperiment(config);
  EXPECT_TRUE(data.ok()) << data.status();

  core::LeadModel model(config.lead);
  const Status trained =
      model.Train(data->TrainLabeled(), data->ValLabeled(),
                  data->world->poi_index(), nullptr);
  EXPECT_TRUE(trained.ok()) << trained;

  std::vector<std::string> lines;
  int used = 0;
  for (const sim::SimulatedDay& day : data->split.test) {
    if (used >= kMaxTrajectories) break;
    auto detection = model.Detect(day.raw, data->world->poi_index());
    if (!detection.ok()) continue;
    ++used;
    for (size_t i = 0; i < detection->probabilities.size(); ++i) {
      lines.push_back(day.raw.trajectory_id + " " + std::to_string(i) + " " +
                      FloatText(detection->probabilities[i]));
    }
  }
  EXPECT_GT(used, 0);
  return lines;
}

// One line per epoch of every TrainingLog series ("<series> <epoch>
// <value>"), the recovery count, then "model_crc32 <hex>" over the bytes
// Save() writes.
std::vector<std::string> TrainLines() {
  eval::ExperimentConfig config = GoldenConfig();
  config.lead.train.autoencoder_epochs = 1;
  config.lead.train.detector_epochs = 1;
  config.lead.train.batch_size = 8;
  auto data = eval::BuildExperiment(config);
  EXPECT_TRUE(data.ok()) << data.status();

  core::LeadModel model(config.lead);
  core::TrainingLog log;
  const Status trained =
      model.Train(data->TrainLabeled(), data->ValLabeled(),
                  data->world->poi_index(), &log);
  EXPECT_TRUE(trained.ok()) << trained;

  std::vector<std::string> lines;
  const auto add_series = [&lines](const char* name,
                                   const std::vector<float>& series) {
    for (size_t epoch = 0; epoch < series.size(); ++epoch) {
      lines.push_back(std::string(name) + " " + std::to_string(epoch) + " " +
                      FloatText(series[epoch]));
    }
  };
  add_series("autoencoder_mse", log.autoencoder_mse);
  add_series("autoencoder_val_mse", log.autoencoder_val_mse);
  add_series("forward_kld", log.forward_kld);
  add_series("forward_val_kld", log.forward_val_kld);
  add_series("backward_kld", log.backward_kld);
  add_series("backward_val_kld", log.backward_val_kld);
  add_series("nogro_bce", log.nogro_bce);
  add_series("nogro_val_bce", log.nogro_val_bce);
  lines.push_back("recoveries " + std::to_string(log.recoveries.size()));

  const std::string path = ::testing::TempDir() + "/golden_train.model";
  const Status saved = model.Save(path);
  EXPECT_TRUE(saved.ok()) << saved;
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty());
  char crc[32];
  std::snprintf(crc, sizeof(crc), "model_crc32 %08x",
                static_cast<unsigned>(Crc32(bytes.data(), bytes.size())));
  lines.emplace_back(crc);
  return lines;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

// Compares `actual` line by line with the fixture at `path`, or rewrites
// the fixture (with `header` as its comment block) and skips when
// LEAD_UPDATE_GOLDEN is set.
void ExpectMatchesGolden(const std::string& path, const std::string& header,
                         const std::vector<std::string>& actual) {
  ASSERT_FALSE(actual.empty());

  if (std::getenv("LEAD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << header
        << "# Regenerate: LEAD_UPDATE_GOLDEN=1 ./golden_detect_test\n";
    for (const std::string& line : actual) out << line << "\n";
    GTEST_SKIP() << "golden file regenerated with " << actual.size()
                 << " lines at " << path;
  }

  const std::vector<std::string> expected = ReadLines(path);
  ASSERT_FALSE(expected.empty())
      << "no golden fixture at " << path
      << "; run with LEAD_UPDATE_GOLDEN=1 to create it";

  // Readable diff: report every drifted line, not just the first.
  std::ostringstream diff;
  int mismatches = 0;
  const size_t n = std::max(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string& want =
        i < expected.size() ? expected[i] : "<missing>";
    const std::string& got = i < actual.size() ? actual[i] : "<missing>";
    if (want != got) {
      ++mismatches;
      if (mismatches <= 20) {
        diff << "  line " << (i + 1) << ": expected \"" << want
             << "\" got \"" << got << "\"\n";
      }
    }
  }
  EXPECT_EQ(mismatches, 0)
      << "output drifted from " << path << ":\n"
      << diff.str()
      << (mismatches > 20 ? "  ...and " + std::to_string(mismatches - 20) +
                                " more\n"
                          : "")
      << "If the change is intentional, regenerate with "
         "LEAD_UPDATE_GOLDEN=1.";
}

TEST(GoldenDetectTest, ProbabilitiesMatchGoldenFile) {
  ExpectMatchesGolden(
      GoldenPath("detect_probs.txt"),
      "# Expected Detect probabilities for the golden corpus.\n"
      "# Format: <trajectory_id> <candidate_flat_index> <probability>\n",
      DetectLines());
}

TEST(GoldenTrainTest, LossesAndModelMatchGoldenFile) {
  ExpectMatchesGolden(
      GoldenPath("train_log.txt"),
      "# Expected training log and saved-model CRC-32 for the golden\n"
      "# corpus after 1 autoencoder + 1 detector epoch at batch 8.\n"
      "# Format: <series> <epoch> <loss> | recoveries <n> |\n"
      "#         model_crc32 <hex>\n",
      TrainLines());
}

}  // namespace
}  // namespace lead
