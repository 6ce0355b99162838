// Seeded workload inputs, statistics helpers and the span log.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"
#include "eval/harness.h"
#include "leadbench/leadbench.h"
#include "obs/trace.h"

namespace lead::leadbench {

void WorkloadResult::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

Sizes WorkloadSizes(bool smoke) {
  if (!smoke) return Sizes{};
  Sizes tiny;
  tiny.setup_train_days = 8;
  tiny.setup_val_days = 4;
  tiny.pool_days = 12;
  tiny.train_days = 8;
  tiny.val_days = 4;
  tiny.train_pool_days = 12;
  return tiny;
}

bool EnoughSetups(const std::vector<double>& setup_seconds) {
  double total = 0.0;
  for (const double s : setup_seconds) total += s;
  return static_cast<int>(setup_seconds.size()) >= kMinSetups &&
         total >= kMinSetupSeconds;
}

DayShape MixedShape() { return DayShape{}; }

DayShape DenseShape() {
  DayShape shape;
  shape.sample_interval_mean_s = 30.0;
  shape.bucket_shares = {1.0, 0.0, 0.0, 0.0};
  return shape;
}

uint64_t StreamSeed(uint64_t seed, const std::string& stream) {
  uint64_t h = SplitMix64(seed);
  for (const char c : stream) {
    h = SplitMix64(h ^ static_cast<uint8_t>(c));
  }
  return h;
}

core::LeadOptions BenchLeadOptions(int ae_epochs, int det_epochs,
                                   int threads) {
  core::LeadOptions options = eval::DefaultConfig(1.0).lead;
  options.train.autoencoder_epochs = ae_epochs;
  options.train.detector_epochs = det_epochs;
  // Patience beyond the schedule: every run trains the same epoch count.
  options.train.early_stopping_patience = ae_epochs + det_epochs + 1;
  options.train.threads = threads;
  options.detect.threads = threads;
  return options;
}

StatusOr<std::vector<sim::SimulatedDay>> GenerateDays(
    const sim::World& world, const core::PipelineOptions& pipeline,
    const DayShape& shape, int count, int days_per_truck,
    const std::string& truck_prefix, uint64_t stream_seed, int threads) {
  // Largest-remainder quotas, then a seeded shuffle so buckets interleave
  // the way a fleet's days would.
  std::array<int, eval::kNumBuckets> quota{};
  std::vector<std::pair<double, int>> remainders;
  int assigned = 0;
  for (int b = 0; b < eval::kNumBuckets; ++b) {
    const double exact = shape.bucket_shares[b] * count;
    quota[b] = static_cast<int>(std::floor(exact));
    assigned += quota[b];
    remainders.emplace_back(exact - quota[b], b);
  }
  std::stable_sort(
      remainders.begin(), remainders.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (int k = 0; assigned < count; ++k, ++assigned) {
    quota[remainders[k % remainders.size()].second] += 1;
  }
  std::vector<int> slot_bucket;
  for (int b = 0; b < eval::kNumBuckets; ++b) {
    slot_bucket.insert(slot_bucket.end(), quota[b], b);
  }
  Rng order = Rng::ForStream(stream_seed, 0xffffffffull);
  order.Shuffle(&slot_bucket);

  std::vector<std::unique_ptr<sim::TruckSimulator>> simulators;
  for (int b = 0; b < eval::kNumBuckets; ++b) {
    sim::SimOptions sim_options;
    sim_options.sample_interval_mean_s = shape.sample_interval_mean_s;
    sim_options.sample_interval_jitter_s = shape.sample_interval_jitter_s;
    for (int k = 0; k < eval::kNumBuckets; ++k) {
      sim_options.bucket_shares[k] = k == b ? 1.0 : 0.0;
    }
    simulators.push_back(std::make_unique<sim::TruckSimulator>(
        &world, sim_options, pipeline.noise, pipeline.stay));
  }

  constexpr int kMaxAttempts = 64;
  std::vector<sim::SimulatedDay> days(static_cast<size_t>(count));
  std::vector<int> ok(static_cast<size_t>(count), 0);
  ThreadPool::Global().ParallelFor(count, threads, [&](int64_t i) {
    const int b = slot_bucket[static_cast<size_t>(i)];
    const int truck = static_cast<int>(i) / days_per_truck;
    const int day_index = static_cast<int>(i) % days_per_truck;
    const std::string truck_id = truck_prefix + "-" + std::to_string(truck);
    const std::string traj_id = truck_id + "-day" + std::to_string(day_index);
    Rng rng = Rng::ForStream(stream_seed, static_cast<uint64_t>(i));
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      std::optional<sim::SimulatedDay> day =
          simulators[b]->SimulateDay(truck_id, traj_id, day_index, &rng);
      if (day.has_value() && eval::BucketOf(day->num_stay_points) == b) {
        days[static_cast<size_t>(i)] = *std::move(day);
        ok[static_cast<size_t>(i)] = 1;
        return;
      }
    }
  });
  for (int i = 0; i < count; ++i) {
    if (ok[static_cast<size_t>(i)] == 0) {
      return InternalError("simulator produced no day for " + truck_prefix +
                           " slot " + std::to_string(i));
    }
  }
  return days;
}

void DescribeDays(const std::vector<sim::SimulatedDay>& days,
                  const std::string& prefix,
                  std::map<std::string, double>* out) {
  const double n = static_cast<double>(std::max<size_t>(1, days.size()));
  double points = 0.0;
  double stays = 0.0;
  double candidates = 0.0;
  std::array<double, eval::kNumBuckets> per_bucket{};
  for (const sim::SimulatedDay& day : days) {
    points += static_cast<double>(day.raw.points.size());
    stays += day.num_stay_points;
    candidates += traj::NumCandidates(day.num_stay_points);
    const int b = eval::BucketOf(day.num_stay_points);
    if (b >= 0) per_bucket[b] += 1.0;
  }
  (*out)[prefix + "days"] = static_cast<double>(days.size());
  (*out)[prefix + "points_per_traj"] = points / n;
  (*out)[prefix + "stays_per_traj"] = stays / n;
  (*out)[prefix + "candidates_per_traj"] = candidates / n;
  for (int b = 0; b < eval::kNumBuckets; ++b) {
    (*out)[prefix + "share_" + std::to_string(eval::kBucketLow[b]) + "_" +
           std::to_string(eval::kBucketHigh[b]) + "_pct"] =
        100.0 * per_bucket[b] / n;
  }
}

void DescribeInputLayer(const std::vector<sim::SimulatedDay>& days,
                        std::map<std::string, double>* per_layer) {
  std::map<std::string, double> shape;
  DescribeDays(days, "input.", &shape);
  shape.erase("input.days");
  per_layer->insert(shape.begin(), shape.end());
}

void FillEndToEnd(const std::vector<double>& setup_s,
                  const std::vector<TrainRecord>& trains,
                  const DetectRecord& detect, WorkloadResult* result) {
  std::vector<double> train_s;
  for (const TrainRecord& t : trains) train_s.push_back(t.seconds);
  std::map<std::string, double>& m = result->end_to_end;
  m["setup_s"] = Median(setup_s);
  // The fastest Train call: the host only ever adds time.
  m["train_s"] =
      train_s.empty() ? 0.0 : *std::min_element(train_s.begin(), train_s.end());
  // Every Train call of a run sees the same inputs and options, so the
  // losses are identical; report the last call's.
  m["ae_val_mse"] = trains.empty() ? 0.0 : trains.back().ae_val_mse;
  m["det_val_kld"] = trains.empty() ? 0.0 : trains.back().det_val_kld;
  // p50 and p99 over the truck-days' fastest visits (a detect workload's
  // 1000 days leave 10 beyond p99).
  m["detect_points_per_s"] =
      detect.batch_s > 0.0 ? detect.points / detect.batch_s : 0.0;
  m["detect_p50_ms"] = Median(detect.latency_ms);
  m["detect_p99_ms"] = Percentile(detect.latency_ms, 0.99);
  m["detect_acc"] =
      detect.days > 0 ? 100.0 * detect.hits / detect.days : 0.0;
}

void WriteSpans(const RunConfig& config, const SpanLog& spans,
                WorkloadResult* result) {
  const std::string path = config.scratch_dir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  if (!spans.WriteJson(path)) result->Fail("cannot write " + path);
}

void WriteLatencies(const RunConfig& config,
                    const std::vector<sim::SimulatedDay>& pool,
                    const DetectRecord& detect, WorkloadResult* result) {
  const std::string path = config.scratch_dir + "/latencies-" +
                           config.workload + "-" +
                           std::to_string(config.seed) + ".csv";
  std::ofstream out(path);
  out << "pass,trajectory_id,stays,points,latency_ms\n";
  for (size_t k = 0; k < detect.visits_ms.size() && !pool.empty(); ++k) {
    const sim::SimulatedDay& day = pool[k % pool.size()];
    out << k / pool.size() << "," << day.raw.trajectory_id << ","
        << day.num_stay_points << "," << day.raw.points.size() << ","
        << detect.visits_ms[k] << "\n";
  }
  if (!out.good()) result->Fail("cannot write " + path);
}

int SpanLog::Begin(const std::string& name, const std::string& request,
                   int parent, bool probe) {
  spans_.push_back(Span{name, request, parent, probe, obs::NowMicros(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int index) {
  spans_[static_cast<size_t>(index)].end_us = obs::NowMicros();
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"request\": \"" << s.request << "\", \"parent\": " << s.parent
        << ", \"probe\": " << (s.probe ? "true" : "false")
        << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.good();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace lead::leadbench
