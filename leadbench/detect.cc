// The detect workloads: set-up (generate, train a small model, save and
// load it), the timed batch and closed-loop phases, and the traced
// attribution pass.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/features.h"
#include "leadbench/leadbench.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traj/noise_filter.h"
#include "traj/segmentation.h"
#include "traj/stay_point.h"

namespace lead::leadbench {

namespace {

// Checks one detection: OK status, n(n-1)/2 candidates, finite
// probabilities in [0, 1], and `loaded` at the argmax.
bool CheckDetection(const StatusOr<core::Detection>& detection,
                    const std::string& id, WorkloadResult* result) {
  if (!detection.ok()) {
    result->Fail(id + ": " + detection.status().ToString());
    return false;
  }
  const core::Detection& d = *detection;
  const size_t expected = static_cast<size_t>(traj::NumCandidates(d.num_stays));
  if (d.num_stays < 2 || d.candidates.size() != expected ||
      d.probabilities.size() != expected) {
    result->Fail(id + ": expected n(n-1)/2 = " + std::to_string(expected) +
                 " candidates for n = " + std::to_string(d.num_stays));
    return false;
  }
  size_t best = 0;
  for (size_t i = 0; i < expected; ++i) {
    const float p = d.probabilities[i];
    if (!std::isfinite(p) || p < 0.0f || p > 1.0f) {
      result->Fail(id + ": probability outside [0, 1]");
      return false;
    }
    if (p > d.probabilities[best]) best = i;
  }
  if (!(d.candidates[best] == d.loaded)) {
    result->Fail(id + ": loaded candidate is not the argmax");
    return false;
  }
  return true;
}

// Records the first decision for day i and checks later ones against it.
void CheckDecision(const core::Detection& detection, int i,
                   const std::string& id, const char* pass,
                   DetectRecord* record, WorkloadResult* result) {
  traj::Candidate& decision = record->decisions[static_cast<size_t>(i)];
  if (decision.start_sp < 0) {
    decision = detection.loaded;
  } else if (!(detection.loaded == decision)) {
    result->Fail(id + ": " + pass + " decision differs from its first visit");
  }
}

// One DetectBatch over the pool (`raws` holds its days); returns its wall
// time in seconds.
double BatchPass(const core::LeadModel& model, const poi::PoiIndex& poi_index,
                 const std::vector<sim::SimulatedDay>& pool,
                 const std::vector<traj::RawTrajectory>& raws,
                 DetectRecord* record, WorkloadResult* result) {
  const int n = static_cast<int>(pool.size());
  const obs::Stopwatch watch;
  const StatusOr<core::BatchDetection> batch =
      model.DetectBatch(raws, poi_index);
  const double seconds = watch.ElapsedSeconds();
  result->attempted += n;
  if (!batch.ok() || static_cast<int>(batch->outcomes.size()) != n) {
    const std::string why =
        batch.ok() ? "DetectBatch: wrong outcome count"
                   : "DetectBatch: " + batch.status().ToString();
    for (int i = 0; i < n; ++i) result->Fail(why);
    return seconds;
  }
  for (int i = 0; i < n; ++i) {
    const core::DetectionOutcome& outcome = batch->outcomes[i];
    const std::string& id = pool[i].raw.trajectory_id;
    const StatusOr<core::Detection> item =
        outcome.status.ok() ? StatusOr<core::Detection>(outcome.detection)
                            : StatusOr<core::Detection>(outcome.status);
    if (CheckDetection(item, id, result)) {
      CheckDecision(outcome.detection, i, id, "batch", record, result);
    }
  }
  return seconds;
}

// One closed-loop pass over the pool; appends one latency per day.
void ClosedLoopPass(const core::LeadModel& model,
                    const poi::PoiIndex& poi_index,
                    const std::vector<sim::SimulatedDay>& pool,
                    std::vector<double>* latencies_ms, DetectRecord* record,
                    WorkloadResult* result) {
  for (int i = 0; i < static_cast<int>(pool.size()); ++i) {
    const std::string& id = pool[i].raw.trajectory_id;
    const obs::Stopwatch watch;
    const StatusOr<core::Detection> detection =
        model.Detect(pool[i].raw, poi_index);
    latencies_ms->push_back(static_cast<double>(watch.ElapsedMicros()) *
                            1e-3);
    ++result->attempted;
    if (CheckDetection(detection, id, result)) {
      CheckDecision(*detection, i, id, "closed-loop", record, result);
    }
  }
}

std::vector<traj::RawTrajectory> Raws(
    const std::vector<sim::SimulatedDay>& pool) {
  std::vector<traj::RawTrajectory> raws;
  raws.reserve(pool.size());
  for (const sim::SimulatedDay& day : pool) raws.push_back(day.raw);
  return raws;
}

// Sizes `record` for the pool before its first phase.
void StartRecord(const std::vector<sim::SimulatedDay>& pool,
                 DetectRecord* record) {
  if (record->days == static_cast<int>(pool.size())) return;
  record->days = static_cast<int>(pool.size());
  record->points = 0.0;
  for (const sim::SimulatedDay& day : pool) {
    record->points += static_cast<double>(day.raw.points.size());
  }
  record->decisions.assign(pool.size(), traj::Candidate{-1, -1});
  record->latency_ms.assign(pool.size(), HUGE_VAL);
}

void CountHits(const std::vector<sim::SimulatedDay>& pool,
               DetectRecord* record) {
  record->hits = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (record->decisions[i] == pool[i].loaded_label) ++record->hits;
  }
}

}  // namespace

void ClosedLoop(const core::LeadModel& model, const poi::PoiIndex& poi_index,
                const std::vector<sim::SimulatedDay>& pool,
                DetectRecord* record, WorkloadResult* result) {
  StartRecord(pool, record);
  const size_t first = record->visits_ms.size();
  ClosedLoopPass(model, poi_index, pool, &record->visits_ms, record, result);
  for (size_t i = 0; i < pool.size(); ++i) {
    record->latency_ms[i] =
        std::min(record->latency_ms[i], record->visits_ms[first + i]);
  }
  ++record->passes;
  CountHits(pool, record);
}

void BatchSweep(const core::LeadModel& model, const poi::PoiIndex& poi_index,
                const std::vector<sim::SimulatedDay>& pool,
                DetectRecord* record, WorkloadResult* result) {
  StartRecord(pool, record);
  record->batch_s =
      BatchPass(model, poi_index, pool, Raws(pool), record, result);
  CountHits(pool, record);
}

namespace {

struct DetectSetup {
  std::unique_ptr<sim::World> world;
  std::vector<sim::SimulatedDay> pool;
  std::unique_ptr<core::LeadModel> model;
  TrainRecord train;
};

// Generation, set-up training on truck-disjoint days, then Save and Load
// as a deployment would.
StatusOr<DetectSetup> SetUp(const RunConfig& config, bool dense,
                            const core::LeadOptions& options,
                            const std::string& model_path,
                            WorkloadResult* result) {
  const Sizes sizes = WorkloadSizes(config.smoke);
  DetectSetup setup;
  setup.world = sim::World::Generate(sim::WorldOptions{});
  // Both detect workloads deploy the same set-up model, trained on the
  // paper's mix.
  auto days = [&](int count, const std::string& trucks, uint64_t seed,
                  const DayShape& shape) {
    return GenerateDays(*setup.world, options.pipeline, shape, count,
                        sizes.days_per_truck, trucks, StreamSeed(seed, trucks),
                        config.threads);
  };
  auto train_days =
      days(sizes.setup_train_days, "setup", kCorpusSeed, MixedShape());
  if (!train_days.ok()) return train_days.status();
  auto val_days =
      days(sizes.setup_val_days, "setupval", kCorpusSeed, MixedShape());
  if (!val_days.ok()) return val_days.status();
  auto pool = days(sizes.pool_days, "pool", config.seed,
                   dense ? DenseShape() : MixedShape());
  if (!pool.ok()) return pool.status();
  setup.pool = std::move(pool).value();

  auto trained =
      TrainAndCheck(options, *train_days, *val_days, setup.world->poi_index(),
                    /*encoder_from=*/nullptr, &setup.train, result);
  if (!trained.ok()) return trained.status();
  LEAD_RETURN_IF_ERROR((*trained)->Save(model_path));
  setup.model = std::make_unique<core::LeadModel>(options);
  LEAD_RETURN_IF_ERROR(setup.model->Load(model_path));
  result->inputs.clear();
  DescribeDays(*train_days, "setup_train.", &result->inputs);
  DescribeDays(setup.pool, "pool.", &result->inputs);
  return setup;
}

double LaneBusyMicros() {
  double total = 0.0;
  for (int lane = 0; lane < 16; ++lane) {
    total += static_cast<double>(
        obs::GetCounter("pool.lane" + std::to_string(lane) + ".busy_us")
            .Value());
  }
  return total;
}

// The traced attribution pass (README.md "Traced run").
void TraceDetect(const RunConfig& config, const core::LeadOptions& options,
                 const std::string& model_path, const DetectSetup& setup,
                 SpanLog* spans, WorkloadResult* result) {
  const poi::PoiIndex& poi_index = setup.world->poi_index();
  const core::LeadModel& model = *setup.model;
  const std::vector<sim::SimulatedDay>& pool = setup.pool;
  const int n = static_cast<int>(pool.size());
  DetectRecord reference;
  reference.decisions.assign(pool.size(), traj::Candidate{-1, -1});

  // The thread-pool lanes: one DetectBatch over the pool by a copy of the
  // model that gets config.pool_lanes lanes, with the lanes' busy counters
  // read around it.
  core::LeadOptions pooled = options;
  pooled.detect.threads = config.pool_lanes;
  core::LeadModel pooled_model(pooled);
  double busy_frac = 0.0;
  if (const Status loaded = pooled_model.Load(model_path); !loaded.ok()) {
    result->Fail("pool-lane load: " + loaded.ToString());
  } else {
    const double busy_before = LaneBusyMicros();
    const double batch_s =
        BatchPass(pooled_model, poi_index, pool, Raws(pool), &reference,
                  result);
    busy_frac = (LaneBusyMicros() - busy_before) /
                (config.pool_lanes * batch_s * 1e6);
  }

  // An untraced closed loop, the base of trace_overhead_pct.
  std::vector<double> untraced_ms;
  ClosedLoopPass(model, poi_index, pool, &untraced_ms, &reference, result);

  // Traced closed loop. The request span holds exactly what Detect does
  // (Preprocess, then DetectProcessed); the probes run afterwards on the
  // same input and are recorded under the same request id. The tensor
  // allocation counter is thread-local: it sees the whole detect because
  // the run's calls get one lane.
  obs::Counter& poi_queries = obs::GetCounter("poi.radius_queries");
  core::FeatureOptions feature_options = options.pipeline.features;
  feature_options.threads = config.threads;
  std::vector<double> preprocess_us, traj_us, features_us, encode_us,
      score_us, request_us;
  double queries = 0.0;
  double allocs = 0.0;
  for (int i = 0; i < n; ++i) {
    const traj::RawTrajectory& raw = pool[i].raw;
    const std::string& id = raw.trajectory_id;
    const int request = spans->Begin("request", id, -1);
    const int pre = spans->Begin("preprocess", id, request);
    const int64_t queries_before = poi_queries.Value();
    const int64_t allocs_before = nn::TensorAllocsThisThread();
    const StatusOr<core::ProcessedTrajectory> pt =
        model.Preprocess(raw, poi_index);
    queries += static_cast<double>(poi_queries.Value() - queries_before);
    spans->End(pre);
    ++result->attempted;
    if (!pt.ok()) {
      spans->End(request);
      result->Fail(id + ": " + pt.status().ToString());
      continue;
    }
    const int detect = spans->Begin("detect_processed", id, request);
    const StatusOr<core::Detection> detection = model.DetectProcessed(*pt);
    spans->End(detect);
    spans->End(request);
    allocs += static_cast<double>(nn::TensorAllocsThisThread() - allocs_before);
    if (CheckDetection(detection, id, result)) {
      CheckDecision(*detection, i, id, "traced", &reference, result);
    }

    const int clean = spans->Begin("traj", id, pre, /*probe=*/true);
    const traj::RawTrajectory cleaned =
        traj::FilterNoise(raw, options.pipeline.noise).cleaned;
    const traj::Segmentation segmentation = traj::Segment(
        cleaned, traj::ExtractStayPoints(cleaned, options.pipeline.stay));
    const std::vector<traj::Candidate> candidates =
        traj::GenerateCandidates(segmentation.num_stays());
    spans->End(clean);
    const int features = spans->Begin("features", id, pre, /*probe=*/true);
    const nn::Matrix packed = core::PackFeatures(
        core::ExtractPointFeatures(pt->cleaned, poi_index, feature_options),
        &model.normalizer());
    spans->End(features);
    const int encode = spans->Begin("encode", id, detect, /*probe=*/true);
    const nn::Matrix cvecs = model.EncodeCandidates(*pt);
    spans->End(encode);
    if (candidates.size() != pt->candidates.size() ||
        packed.rows() != pt->features.rows() ||
        cvecs.rows() != static_cast<int>(pt->candidates.size())) {
      result->Fail(id + ": a probe disagrees with Preprocess");
    }

    const std::vector<SpanLog::Span>& s = spans->spans();
    preprocess_us.push_back(s[pre].micros());
    traj_us.push_back(s[clean].micros());
    features_us.push_back(s[features].micros());
    encode_us.push_back(s[encode].micros());
    score_us.push_back(s[detect].micros() - s[encode].micros());
    request_us.push_back(s[request].micros());
  }

  std::map<std::string, double>& m = result->per_layer;
  const double days = static_cast<double>(std::max(1, n));
  m["core.lead.preprocess_us"] = Mean(preprocess_us);
  m["traj.clean_segment_us"] = Mean(traj_us);
  m["core.features.extract_us"] = Mean(features_us);
  m["poi.queries_per_traj"] = queries / days;
  m["core.autoencoder.encode_us"] = Mean(encode_us);
  m["core.detector.score_us"] = Mean(score_us);
  m["nn.allocs_per_detect"] = allocs / days;
  m["common.pool.busy_frac"] = busy_frac;
  m["trace_overhead_pct"] =
      100.0 * (Median(request_us) / (1e3 * Median(untraced_ms)) - 1.0);
}

}  // namespace

WorkloadResult RunDetectWorkload(const RunConfig& config, bool dense,
                                 uint64_t process_clock_us) {
  WorkloadResult result;
  const core::LeadOptions options =
      BenchLeadOptions(kEpochs, kEpochs, config.threads);
  const std::string model_path = config.scratch_dir + "/setup_model.bin";

  std::vector<double> setup_s;
  std::vector<TrainRecord> trains;
  std::unique_ptr<DetectSetup> setup;
  // Releases the current set-up, then sets up afresh, timed from `start`.
  auto set_up = [&](uint64_t start) {
    setup.reset();
    StatusOr<DetectSetup> fresh =
        SetUp(config, dense, options, model_path, &result);
    setup_s.push_back(static_cast<double>(obs::NowMicros() - start) * 1e-6);
    if (!fresh.ok()) {
      result.Fail("set-up: " + fresh.status().ToString());
      return false;
    }
    setup = std::make_unique<DetectSetup>(std::move(fresh).value());
    trains.push_back(setup->train);
    return true;
  };
  if (!set_up(process_clock_us)) return result;
  DescribeInputLayer(setup->pool, &result.per_layer);

  if (config.trace) {
    SpanLog spans;
    TraceDetect(config, options, model_path, *setup, &spans, &result);
    WriteSpans(config, spans, &result);
    return result;
  }
  // A fresh set-up precedes every phase after the first (set-up is
  // deterministic: every phase sees the same days and model), and more
  // follow the last phase until setup_s, their median, has enough of them.
  // So the set-ups, like the phases, spread over the whole run, and the
  // two visits of a truck-day lie a sweep and two set-ups apart.
  DetectRecord detect;
  const obs::Stopwatch budget;
  ClosedLoop(*setup->model, setup->world->poi_index(), setup->pool, &detect,
             &result);
  if (!set_up(obs::NowMicros())) return result;
  BatchSweep(*setup->model, setup->world->poi_index(), setup->pool, &detect,
             &result);
  do {
    if (!set_up(obs::NowMicros())) return result;
    ClosedLoop(*setup->model, setup->world->poi_index(), setup->pool,
               &detect, &result);
  } while (detect.passes < kClosedLoopPasses ||
           budget.ElapsedSeconds() < config.seconds);
  while (!EnoughSetups(setup_s)) {
    if (!set_up(obs::NowMicros())) return result;
  }
  FillEndToEnd(setup_s, trains, detect, &result);
  WriteLatencies(config, setup->pool, detect, &result);
  return result;
}

}  // namespace lead::leadbench
