// Checkpoint durability: CRC-32 detection of truncation and bit rot,
// atomic file writes, shape validation — driven through the named fault
// points of common/fault.h.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/features.h"
#include "core/lead.h"
#include "eval/harness.h"
#include "nn/linear.h"
#include "nn/serialize.h"

namespace lead {
namespace {

std::vector<nn::Matrix> Values(const nn::Module& module) {
  std::vector<nn::Matrix> out;
  for (const nn::NamedParameter& p : module.NamedParameters()) {
    out.push_back(p.variable.value());
  }
  return out;
}

void ExpectSameValues(const nn::Module& a, const nn::Module& b) {
  const std::vector<nn::Matrix> va = Values(a);
  const std::vector<nn::Matrix> vb = Values(b);
  ASSERT_EQ(va.size(), vb.size());
  for (size_t k = 0; k < va.size(); ++k) {
    ASSERT_EQ(va[k].rows(), vb[k].rows());
    ASSERT_EQ(va[k].cols(), vb[k].cols());
    for (int i = 0; i < va[k].size(); ++i) {
      EXPECT_EQ(va[k].data()[i], vb[k].data()[i]);
    }
  }
}

class SerializeRobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

TEST_F(SerializeRobustnessTest, RoundTripsThroughStreamAndFile) {
  Rng rng(1);
  Rng rng2(2);
  nn::Linear source(4, 3, &rng);
  nn::Linear stream_copy(4, 3, &rng2);
  std::stringstream buffer;
  ASSERT_TRUE(nn::SaveParameters(source, buffer).ok());
  ASSERT_TRUE(nn::LoadParameters(&stream_copy, buffer).ok());
  ExpectSameValues(source, stream_copy);

  const std::string path = ::testing::TempDir() + "/roundtrip.ckpt";
  nn::Linear file_copy(4, 3, &rng2);
  ASSERT_TRUE(nn::SaveParametersToFile(source, path).ok());
  ASSERT_TRUE(nn::LoadParametersFromFile(&file_copy, path).ok());
  ExpectSameValues(source, file_copy);
  std::remove(path.c_str());
}

TEST_F(SerializeRobustnessTest, RejectsTruncatedCheckpoint) {
  Rng rng(3);
  nn::Linear model(4, 3, &rng);
  std::ostringstream buffer;
  ASSERT_TRUE(nn::SaveParameters(model, buffer).ok());
  const std::string full = buffer.str();
  // Every proper prefix must be rejected with a Status, never a crash.
  for (const size_t keep :
       {size_t{0}, size_t{7}, size_t{15}, full.size() / 2,
        full.size() - 1}) {
    std::istringstream truncated(full.substr(0, keep));
    nn::Linear target(4, 3, &rng);
    const Status status = nn::LoadParameters(&target, truncated);
    EXPECT_FALSE(status.ok()) << "prefix of " << keep << " bytes loaded";
  }
}

TEST_F(SerializeRobustnessTest, TornWriteFaultSurfacesIoError) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  Rng rng(4);
  nn::Linear model(4, 3, &rng);
  std::stringstream buffer;
  fault::ArmFail("serialize.write", 1);
  const Status status = nn::SaveParameters(model, buffer);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(fault::Fires("serialize.write"), 1);
  // The torn half-write it left behind must be rejected on load.
  nn::Linear target(4, 3, &rng);
  EXPECT_FALSE(nn::LoadParameters(&target, buffer).ok());
}

TEST_F(SerializeRobustnessTest, BitFlipIsCaughtByCrc) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  Rng rng(5);
  nn::Linear model(4, 3, &rng);
  // Clean save first, to find where the payload (pre-footer) ends.
  std::ostringstream clean;
  ASSERT_TRUE(nn::SaveParameters(model, clean).ok());
  const size_t payload_size = clean.str().size() - sizeof(uint32_t);

  // Flip the last payload byte (inside the final parameter's float data)
  // after the CRC has been computed: the save succeeds, the load must
  // detect the rot.
  fault::ArmCorrupt("serialize.body", 1, 0x01, payload_size - 1);
  std::stringstream corrupted;
  ASSERT_TRUE(nn::SaveParameters(model, corrupted).ok());
  EXPECT_EQ(fault::Fires("serialize.body"), 1);

  nn::Linear target(4, 3, &rng);
  const Status status = nn::LoadParameters(&target, corrupted);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("CRC"), std::string::npos) << status;
}

TEST_F(SerializeRobustnessTest, RejectsWrongShapeAndWrongArchitecture) {
  Rng rng(6);
  nn::Linear model(4, 3, &rng);
  std::ostringstream buffer;
  ASSERT_TRUE(nn::SaveParameters(model, buffer).ok());

  nn::Linear wider(5, 3, &rng);
  std::istringstream replay(buffer.str());
  const Status shape = nn::LoadParameters(&wider, replay);
  EXPECT_FALSE(shape.ok());
  EXPECT_EQ(shape.code(), StatusCode::kInvalidArgument);

  std::istringstream garbage("definitely not a checkpoint at all");
  nn::Linear target(4, 3, &rng);
  EXPECT_FALSE(nn::LoadParameters(&target, garbage).ok());
}

TEST_F(SerializeRobustnessTest, AtomicSavePreservesPreviousCheckpoint) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = ::testing::TempDir() + "/atomic.ckpt";
  Rng rng(7);
  nn::Linear first(4, 3, &rng);
  ASSERT_TRUE(nn::SaveParametersToFile(first, path).ok());

  // A failed overwrite (torn write into the temp file) must leave the
  // previous checkpoint byte-identical and loadable. Armed persistently
  // (nth = 0) so the fault defeats every retry attempt, not just the
  // first.
  nn::Linear second(4, 3, &rng);
  fault::ArmFail("serialize.write", 0);
  const Status save = nn::SaveParametersToFile(second, path);
  fault::Disarm("serialize.write");
  EXPECT_FALSE(save.ok());
  EXPECT_EQ(save.code(), StatusCode::kIoError);

  nn::Linear restored(4, 3, &rng);
  ASSERT_TRUE(nn::LoadParametersFromFile(&restored, path).ok());
  ExpectSameValues(first, restored);
  std::remove(path.c_str());
}

TEST_F(SerializeRobustnessTest, TransientTornWriteHealsByRetry) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  const std::string path = ::testing::TempDir() + "/healed.ckpt";
  Rng rng(8);
  nn::Linear model(4, 3, &rng);

  // One transient torn write (fires once, then disarms): the retry layer
  // re-serializes and the save succeeds on a later attempt.
  fault::ArmFail("serialize.write", 1);
  ASSERT_TRUE(nn::SaveParametersToFile(model, path).ok());
  EXPECT_EQ(fault::Fires("serialize.write"), 1);

  nn::Linear restored(4, 3, &rng);
  ASSERT_TRUE(nn::LoadParametersFromFile(&restored, path).ok());
  ExpectSameValues(model, restored);
  std::remove(path.c_str());
}

// LeadModel files whose normalizer header passes its CRC but not its
// semantics. The header is magic (8 bytes), version (u32), width (u32),
// mean and std (width floats each), then the CRC-32 of all of it; the
// module sections follow.
class ModelHeaderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::ExperimentConfig config = eval::DefaultConfig(1.0);
    config.world.num_background_pois = 1500;
    config.dataset.num_trajectories = 40;
    config.dataset.num_trucks = 20;
    config.lead.train.autoencoder_epochs = 0;
    config.lead.train.detector_epochs = 0;
    options_ = config.lead;
    auto data = eval::BuildExperiment(config);
    ASSERT_TRUE(data.ok()) << data.status();
    core::LeadModel model(options_);
    ASSERT_TRUE(model
                    .Train(data->TrainLabeled(), data->ValLabeled(),
                           data->world->poi_index(), nullptr)
                    .ok());
    const std::string path = ::testing::TempDir() + "/header_source.model";
    ASSERT_TRUE(model.Save(path).ok());
    std::ifstream in(path, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    std::remove(path.c_str());
  }

  static uint32_t SavedWidth() {
    uint32_t width = 0;
    std::memcpy(&width, bytes_.data() + 12, sizeof(width));
    return width;
  }

  static std::vector<float> SavedMoment(int which) {
    std::vector<float> moment(SavedWidth());
    std::memcpy(moment.data(),
                bytes_.data() + 16 + which * SavedWidth() * sizeof(float),
                SavedWidth() * sizeof(float));
    return moment;
  }

  // The saved model with its normalizer moments replaced (any width) and
  // the header re-sealed with a valid CRC; module sections unchanged.
  static std::string Resealed(const std::vector<float>& mean,
                              const std::vector<float>& std_dev) {
    const size_t old_header = 16 + 2 * SavedWidth() * sizeof(float);
    std::string header = bytes_.substr(0, 12);
    const uint32_t width = static_cast<uint32_t>(mean.size());
    header.append(reinterpret_cast<const char*>(&width), sizeof(width));
    header.append(reinterpret_cast<const char*>(mean.data()),
                  mean.size() * sizeof(float));
    header.append(reinterpret_cast<const char*>(std_dev.data()),
                  std_dev.size() * sizeof(float));
    const uint32_t crc = Crc32(header.data(), header.size());
    header.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    return header + bytes_.substr(old_header + sizeof(crc));
  }

  // Writes `bytes` to a file and loads it into a fresh model.
  static Status LoadBytes(const std::string& bytes) {
    const std::string path = ::testing::TempDir() + "/header_edit.model";
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    core::LeadModel model(options_);
    const Status status = model.Load(path);
    std::remove(path.c_str());
    return status;
  }

  static core::LeadOptions options_;
  static std::string bytes_;
};

core::LeadOptions ModelHeaderTest::options_;
std::string ModelHeaderTest::bytes_;

TEST_F(ModelHeaderTest, ResealedOriginalHeaderLoads) {
  ASSERT_EQ(SavedWidth(), static_cast<uint32_t>(core::kFeatureDims));
  const std::string resealed = Resealed(SavedMoment(0), SavedMoment(1));
  EXPECT_EQ(resealed, bytes_);
  EXPECT_TRUE(LoadBytes(resealed).ok());
}

TEST_F(ModelHeaderTest, WrongWidthWithValidCrcIsRejected) {
  // Width 31 against the 32-wide feature rows: without the load-time
  // check this loads "ok" and the first Detect aborts in
  // ZScoreNormalizer::Apply.
  std::vector<float> mean = SavedMoment(0);
  std::vector<float> std_dev = SavedMoment(1);
  mean.resize(31);
  std_dev.resize(31);
  const Status status = LoadBytes(Resealed(mean, std_dev));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST_F(ModelHeaderTest, NonFiniteMomentsWithValidCrcAreRejected) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> mean = SavedMoment(0);
  mean[3] = nan;
  Status status = LoadBytes(Resealed(mean, SavedMoment(1)));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;

  // FromMoments clamps std to a minimum, but max(NaN, min) is NaN.
  std::vector<float> std_dev = SavedMoment(1);
  std_dev[0] = nan;
  status = LoadBytes(Resealed(SavedMoment(0), std_dev));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;

  std_dev[0] = std::numeric_limits<float>::infinity();
  status = LoadBytes(Resealed(SavedMoment(0), std_dev));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

}  // namespace
}  // namespace lead
