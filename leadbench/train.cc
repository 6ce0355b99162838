// The train workload, the timed Train call shared with the detect
// workloads' set-up, and the traced stage split and step replica.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/autoencoder.h"
#include "core/batching.h"
#include "core/detector.h"
#include "core/grouping.h"
#include "core/labels.h"
#include "core/pipeline.h"
#include "eval/harness.h"
#include "leadbench/leadbench.h"
#include "nn/adam.h"
#include "nn/batch.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "obs/trace.h"

namespace lead::leadbench {

namespace {

bool AllFinite(const std::vector<float>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](float v) { return std::isfinite(v); });
}

}  // namespace

StatusOr<std::unique_ptr<core::LeadModel>> TrainAndCheck(
    const core::LeadOptions& options,
    const std::vector<sim::SimulatedDay>& train,
    const std::vector<sim::SimulatedDay>& val, const poi::PoiIndex& poi_index,
    const core::LeadModel* encoder_from, TrainRecord* record,
    WorkloadResult* result) {
  const std::vector<core::LabeledRawTrajectory> train_labeled =
      eval::ToLabeled(train);
  const std::vector<core::LabeledRawTrajectory> val_labeled =
      eval::ToLabeled(val);
  auto model = std::make_unique<core::LeadModel>(options);
  core::TrainingLog log;
  const obs::Stopwatch watch;
  Status status = Status::Ok();
  if (encoder_from != nullptr) status = model->CopyEncoderFrom(*encoder_from);
  if (status.ok()) {
    status = model->Train(train_labeled, val_labeled, poi_index, &log);
  }
  record->seconds = watch.ElapsedSeconds();
  ++result->attempted;
  if (!status.ok()) {
    result->Fail("Train: " + status.ToString());
    return status;
  }
  const size_t ae = static_cast<size_t>(options.train.autoencoder_epochs);
  const size_t det = static_cast<size_t>(options.train.detector_epochs);
  const bool complete =
      log.autoencoder_mse.size() == ae &&
      log.autoencoder_val_mse.size() == ae && log.forward_kld.size() == det &&
      log.forward_val_kld.size() == det && log.backward_kld.size() == det &&
      log.backward_val_kld.size() == det;
  if (!complete || !AllFinite(log.autoencoder_mse) ||
      !AllFinite(log.autoencoder_val_mse) || !AllFinite(log.forward_kld) ||
      !AllFinite(log.forward_val_kld) || !AllFinite(log.backward_kld) ||
      !AllFinite(log.backward_val_kld)) {
    result->Fail("Train: missing or non-finite loss in the training log");
    return InternalError("bad training log");
  }
  record->ae_val_mse =
      ae > 0 ? static_cast<double>(log.autoencoder_val_mse.back()) : 0.0;
  record->det_val_kld =
      det > 0 ? 0.5 * (static_cast<double>(log.forward_val_kld.back()) +
                       static_cast<double>(log.backward_val_kld.back()))
              : 0.0;
  return model;
}

namespace {

struct TrainSetup {
  std::unique_ptr<sim::World> world;
  std::vector<sim::SimulatedDay> train;
  std::vector<sim::SimulatedDay> val;
  std::vector<sim::SimulatedDay> pool;
};

StatusOr<TrainSetup> SetUp(const RunConfig& config,
                           const core::LeadOptions& options,
                           WorkloadResult* result) {
  const Sizes sizes = WorkloadSizes(config.smoke);
  TrainSetup setup;
  setup.world = sim::World::Generate(sim::WorldOptions{});
  auto days = [&](int count, const std::string& trucks, uint64_t seed) {
    return GenerateDays(*setup.world, options.pipeline, MixedShape(), count,
                        sizes.days_per_truck, trucks, StreamSeed(seed, trucks),
                        config.threads);
  };
  auto train = days(sizes.train_days, "train", kCorpusSeed);
  if (!train.ok()) return train.status();
  auto val = days(sizes.val_days, "val", kCorpusSeed);
  if (!val.ok()) return val.status();
  auto pool = days(sizes.train_pool_days, "pool", config.seed);
  if (!pool.ok()) return pool.status();
  setup.train = std::move(train).value();
  setup.val = std::move(val).value();
  setup.pool = std::move(pool).value();
  result->inputs.clear();
  DescribeDays(setup.train, "train.", &result->inputs);
  DescribeDays(setup.val, "val.", &result->inputs);
  DescribeDays(setup.pool, "pool.", &result->inputs);
  return setup;
}

// Per-step costs of the replica, one entry per optimizer step.
struct StepCosts {
  std::vector<double> forward_ms;
  std::vector<double> backward_ms;
  std::vector<double> adam_ms;
  std::vector<double> allocs;
};

nn::Adam MakeAdam(const nn::Module& module, const core::LeadOptions& options) {
  nn::AdamOptions adam;
  adam.learning_rate = options.train.learning_rate;
  adam.clip_grad_norm = 5.0f;  // the library's training-stage clip
  return nn::Adam(module.Parameters(), adam);
}

// Times one replica step: `forward` builds the loss, then nn::Backward and
// Optimizer::StepAndZeroGrad, each under its own span.
template <typename Forward>
void TimedStep(const char* module, Forward&& forward, nn::Optimizer* optimizer,
               SpanLog* spans, StepCosts* costs, WorkloadResult* result) {
  const std::string prefix(module);
  const int64_t allocs_before = nn::TensorAllocsThisThread();
  const int step = spans->Begin(prefix + ".step", "replica", -1);
  const int fwd = spans->Begin(prefix + ".forward", "replica", step);
  const nn::Variable loss = forward();
  spans->End(fwd);
  const int bwd = spans->Begin(prefix + ".backward", "replica", step);
  nn::Backward(loss);
  spans->End(bwd);
  const int adam = spans->Begin(prefix + ".adam", "replica", step);
  optimizer->StepAndZeroGrad();
  spans->End(adam);
  spans->End(step);
  costs->allocs.push_back(
      static_cast<double>(nn::TensorAllocsThisThread() - allocs_before));
  const std::vector<SpanLog::Span>& s = spans->spans();
  costs->forward_ms.push_back(s[fwd].micros() * 1e-3);
  costs->backward_ms.push_back(s[bwd].micros() * 1e-3);
  costs->adam_ms.push_back(s[adam].micros() * 1e-3);
  ++result->attempted;
  if (!std::isfinite(loss.value().at(0, 0))) {
    result->Fail(prefix + " replica: non-finite loss");
  }
}

// One epoch of batch-size autoencoder steps on a fresh module, with the
// library's epoch shape: at most max_candidates_per_trajectory candidates
// per day, shuffled across days.
StepCosts AutoencoderReplica(const core::LeadOptions& options,
                             const std::vector<core::ProcessedTrajectory>& pts,
                             uint64_t seed, SpanLog* spans,
                             WorkloadResult* result) {
  Rng init(options.train.seed);
  core::HierarchicalAutoencoder ae(options.autoencoder, &init);
  nn::Adam adam = MakeAdam(ae, options);
  std::vector<core::CandidateBatchItem> items;
  for (size_t i = 0; i < pts.size(); ++i) {
    std::vector<traj::Candidate> candidates = pts[i].candidates;
    Rng pick = Rng::ForStream(seed, i);
    pick.Shuffle(&candidates);
    candidates.resize(std::min<size_t>(
        candidates.size(),
        static_cast<size_t>(options.train.max_candidates_per_trajectory)));
    for (const traj::Candidate& c : candidates) items.push_back({&pts[i], c});
  }
  Rng order = Rng::ForStream(seed, 0xffffffffull);
  order.Shuffle(&items);

  StepCosts costs;
  const size_t batch = static_cast<size_t>(options.train.batch_size);
  for (size_t begin = 0; begin < items.size(); begin += batch) {
    const std::vector<core::CandidateBatchItem> chunk(
        items.begin() + static_cast<std::ptrdiff_t>(begin),
        items.begin() +
            static_cast<std::ptrdiff_t>(std::min(items.size(), begin + batch)));
    TimedStep(
        "ae", [&] { return ae.ReconstructionLossBatch(chunk); }, &adam, spans,
        &costs, result);
  }
  return costs;
}

// One epoch of batch-size forward-detector steps on a fresh module over
// frozen-encoder c-vecs: every subgroup of the batch scored in length
// buckets, then per-day softmax and KLD against the smoothed label.
StepCosts DetectorReplica(const core::LeadOptions& options,
                          const core::LeadModel& encoder,
                          const std::vector<core::ProcessedTrajectory>& pts,
                          const std::vector<sim::SimulatedDay>& days,
                          uint64_t seed, SpanLog* spans,
                          WorkloadResult* result) {
  struct Day {
    int num_stays = 0;
    traj::Candidate loaded;
    std::vector<nn::Matrix> groups;  // forward subgroups, [T x cvec] each
  };
  std::vector<Day> cached;
  for (size_t i = 0; i < pts.size(); ++i) {
    Day day;
    day.num_stays = pts[i].num_stays();
    day.loaded = days[i].loaded_label;
    const nn::Matrix cvecs = encoder.EncodeCandidates(pts[i]);
    for (const core::Subgroup& g : core::ForwardGroups(day.num_stays)) {
      nn::Matrix m(static_cast<int>(g.members.size()), cvecs.cols());
      for (size_t j = 0; j < g.members.size(); ++j) {
        const float* src =
            cvecs.row(traj::CandidateFlatIndex(day.num_stays, g.members[j]));
        std::copy(src, src + cvecs.cols(), m.row(static_cast<int>(j)));
      }
      day.groups.push_back(std::move(m));
    }
    cached.push_back(std::move(day));
  }
  Rng init(options.train.seed + 1);
  core::StackedBiLstmDetector detector(options.detector, &init);
  nn::Adam adam = MakeAdam(detector, options);
  std::vector<size_t> order(cached.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng shuffle = Rng::ForStream(seed, 0xffffffffull);
  shuffle.Shuffle(&order);

  auto batch_loss = [&](size_t begin, size_t end) {
    std::vector<const nn::Matrix*> mats;
    std::vector<int> lengths;
    for (size_t k = begin; k < end; ++k) {
      for (const nn::Matrix& g : cached[order[k]].groups) {
        mats.push_back(&g);
        lengths.push_back(g.rows());
      }
    }
    const std::vector<core::LengthBucket> buckets = core::BucketByLength(
        lengths, core::kSubgroupMaxBatch, core::kSubgroupMaxPadding);
    std::vector<nn::Variable> scores(buckets.size());
    std::vector<std::pair<int, int>> where(mats.size());
    for (size_t kb = 0; kb < buckets.size(); ++kb) {
      std::vector<nn::SeqView> views;
      for (size_t j = 0; j < buckets[kb].items.size(); ++j) {
        const int pi = buckets[kb].items[j];
        views.push_back({nn::SeqSpan{mats[pi], 0, lengths[pi]}});
        where[pi] = {static_cast<int>(kb), static_cast<int>(j)};
      }
      scores[kb] = detector.ScoreSubgroupsBatch(nn::PackViews(views));
    }
    nn::Variable total;
    size_t next = 0;
    for (size_t k = begin; k < end; ++k) {
      const Day& day = cached[order[k]];
      std::vector<nn::Variable> parts;
      for (const nn::Matrix& g : day.groups) {
        const auto [kb, row] = where[next++];
        parts.push_back(
            nn::SliceCols(nn::SliceRows(scores[kb], row, 1), 0, g.rows()));
      }
      const nn::Variable label = nn::Variable::Constant(
          nn::Matrix::RowVector(core::ForwardLabel(
              day.num_stays, day.loaded, options.train.label_epsilon)));
      const nn::Variable kld =
          nn::KlDivergence(label, nn::SoftmaxRows(nn::ConcatCols(parts)));
      total = total.defined() ? nn::Add(total, kld) : kld;
    }
    return nn::ScalarMul(total,
                         1.0f / static_cast<float>(options.train.batch_size));
  };

  StepCosts costs;
  const size_t batch = static_cast<size_t>(options.train.batch_size);
  for (size_t begin = 0; begin < cached.size(); begin += batch) {
    const size_t end = std::min(cached.size(), begin + batch);
    TimedStep(
        "det", [&] { return batch_loss(begin, end); }, &adam, spans, &costs,
        result);
  }
  return costs;
}

// The traced attribution pass (README.md "Traced run").
void TraceTrain(const RunConfig& config, const core::LeadOptions& options,
                const TrainSetup& setup, SpanLog* spans,
                WorkloadResult* result) {
  const poi::PoiIndex& poi_index = setup.world->poi_index();
  auto timed_train = [&](const char* name, int ae_epochs, int det_epochs,
                         const core::LeadModel* encoder_from,
                         TrainRecord* record) {
    core::LeadOptions stage = options;
    stage.train.autoencoder_epochs = ae_epochs;
    stage.train.detector_epochs = det_epochs;
    const int span = spans->Begin(name, "train", -1);
    auto model = TrainAndCheck(stage, setup.train, setup.val, poi_index,
                               encoder_from, record, result);
    spans->End(span);
    return model;
  };

  // The workload's Train call, the whole the stage split is measured
  // against.
  TrainRecord whole;
  const auto reference =
      timed_train("train", kEpochs, kEpochs, nullptr, &whole);

  // ProcessTrajectory over the train and validation days.
  core::PipelineOptions pipeline = options.pipeline;
  pipeline.features.threads = config.threads;
  const int prepare = spans->Begin("prepare", "train", -1);
  for (const auto* part : {&setup.train, &setup.val}) {
    for (const sim::SimulatedDay& day : *part) {
      const StatusOr<core::ProcessedTrajectory> pt = core::ProcessTrajectory(
          day.raw, poi_index, pipeline, /*normalizer=*/nullptr);
      ++result->attempted;
      if (!pt.ok()) {
        result->Fail("ProcessTrajectory: " + pt.status().ToString());
      }
    }
  }
  spans->End(prepare);
  const double prepare_s = spans->spans()[prepare].micros() * 1e-6;

  // Stage split. A Train call with no epochs prepares, fits the normalizer
  // and caches c-vecs but trains nothing; each stage is its Train call
  // minus that fixed part.
  TrainRecord base, ae_stage, det_stage;
  const auto no_epochs = timed_train("train_no_epochs", 0, 0, nullptr, &base);
  const auto encoder = timed_train("ae_stage", kEpochs, 0, nullptr, &ae_stage);
  if (!encoder.ok() || !reference.ok() || !no_epochs.ok()) return;
  const auto detectors =
      timed_train("det_stage", 0, kEpochs, encoder->get(), &det_stage);
  if (!detectors.ok()) return;
  const double ae_s = ae_stage.seconds - base.seconds;
  const double det_s = det_stage.seconds - base.seconds;

  // Step replica on the normalized training days.
  std::vector<core::ProcessedTrajectory> pts;
  for (const sim::SimulatedDay& day : setup.train) {
    StatusOr<core::ProcessedTrajectory> pt = core::ProcessTrajectory(
        day.raw, poi_index, pipeline, &(*encoder)->normalizer());
    ++result->attempted;
    if (!pt.ok()) {
      result->Fail("ProcessTrajectory: " + pt.status().ToString());
      return;
    }
    pts.push_back(std::move(pt).value());
  }
  const StepCosts ae = AutoencoderReplica(
      options, pts, StreamSeed(config.seed, "replica-ae"), spans, result);
  const StepCosts det =
      DetectorReplica(options, **encoder, pts, setup.train,
                      StreamSeed(config.seed, "replica-det"), spans, result);

  std::map<std::string, double>& m = result->per_layer;
  m["core.pipeline.prepare_ms"] = prepare_s * 1e3;
  m["core.lead.ae_stage_s"] = ae_s;
  m["core.lead.det_stage_s"] = det_s;
  m["core.lead.train_unattributed_s"] =
      whole.seconds - (prepare_s + ae_s + det_s);
  m["core.autoencoder.fwd_ms"] = Mean(ae.forward_ms);
  m["core.detector.fwd_ms"] = Mean(det.forward_ms);
  m["nn.backward.ae_ms"] = Mean(ae.backward_ms);
  m["nn.backward.det_ms"] = Mean(det.backward_ms);
  m["nn.adam.ae_ms"] = Mean(ae.adam_ms);
  m["nn.adam.det_ms"] = Mean(det.adam_ms);
  m["nn.allocs_per_ae_step"] = Mean(ae.allocs);
  m["nn.allocs_per_det_step"] = Mean(det.allocs);
  // The stage calls recompose the whole: (AE stage) + (detector stage) -
  // (no-epoch call) runs the same work as one Train call.
  m["trace_overhead_pct"] =
      100.0 * ((ae_stage.seconds + det_stage.seconds - base.seconds) /
                   whole.seconds -
               1.0);
}

}  // namespace

WorkloadResult RunTrainWorkload(const RunConfig& config,
                                uint64_t process_clock_us) {
  WorkloadResult result;
  const core::LeadOptions options =
      BenchLeadOptions(kEpochs, kEpochs, config.threads);

  // Untraced runs set up several times so setup_s is a median; the last
  // set-up is kept.
  std::vector<double> setup_s;
  std::unique_ptr<TrainSetup> setup;
  do {
    const uint64_t start =
        setup_s.empty() ? process_clock_us : obs::NowMicros();
    setup.reset();
    StatusOr<TrainSetup> fresh = SetUp(config, options, &result);
    setup_s.push_back(static_cast<double>(obs::NowMicros() - start) * 1e-6);
    if (!fresh.ok()) {
      result.Fail("set-up: " + fresh.status().ToString());
      return result;
    }
    setup = std::make_unique<TrainSetup>(std::move(fresh).value());
  } while (!config.trace && !EnoughSetups(setup_s));
  DescribeInputLayer(setup->train, &result.per_layer);

  if (config.trace) {
    SpanLog spans;
    TraceTrain(config, options, *setup, &spans, &result);
    WriteSpans(config, spans, &result);
    return result;
  }
  // One Train call, then the trained model on the held-out days.
  const obs::Stopwatch budget;
  TrainRecord trained_record;
  auto model = TrainAndCheck(options, setup->train, setup->val,
                             setup->world->poi_index(), nullptr,
                             &trained_record, &result);
  if (!model.ok()) return result;
  const poi::PoiIndex& poi_index = setup->world->poi_index();
  DetectRecord detect;
  ClosedLoop(**model, poi_index, setup->pool, &detect, &result);
  BatchSweep(**model, poi_index, setup->pool, &detect, &result);
  do {
    ClosedLoop(**model, poi_index, setup->pool, &detect, &result);
  } while (detect.passes < kClosedLoopPasses ||
           budget.ElapsedSeconds() < config.seconds);
  FillEndToEnd(setup_s, {trained_record}, detect, &result);
  WriteLatencies(config, setup->pool, detect, &result);
  return result;
}

}  // namespace lead::leadbench
