// Microbenchmarks of the substrates (google-benchmark): noise filtering,
// stay-point extraction, candidate generation, POI index queries, GEMM,
// the vmath gate nonlinearities, LSTM steps and the full processing
// pipeline. These quantify the design choices DESIGN.md calls out (grid
// index, i-k-j GEMM order, shared phase-1 encoding is covered by
// ablation_shared_encoding).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "nn/batch.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "nn/simd_gemm.h"
#include "nn/vmath.h"
#include "sim/truck_sim.h"
#include "sim/world.h"
#include "traj/noise_filter.h"
#include "traj/segmentation.h"
#include "traj/stay_point.h"

namespace {

using namespace lead;

// Shared fixtures built once.
const sim::World& TestWorld() {
  static const sim::World* world = [] {
    sim::WorldOptions options;
    options.num_background_pois = 8000;
    options.seed = 11;
    return sim::World::Generate(options).release();
  }();
  return *world;
}

const traj::RawTrajectory& TestTrajectory() {
  static const traj::RawTrajectory* trajectory = [] {
    const sim::TruckSimulator simulator(&TestWorld(), sim::SimOptions(),
                                        traj::NoiseFilterOptions(),
                                        traj::StayPointOptions());
    Rng rng(21);
    auto day = simulator.SimulateDay("bench", "bench", 0, &rng);
    LEAD_CHECK(day.has_value());
    // Leaked on purpose (function-local singleton).
    return new traj::RawTrajectory(day->raw);  // lead-lint: allow(raw-new)
  }();
  return *trajectory;
}

void BM_NoiseFilter(benchmark::State& state) {
  const traj::RawTrajectory& raw = TestTrajectory();
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj::FilterNoise(raw));
  }
  state.SetItemsProcessed(state.iterations() * raw.size());
}
BENCHMARK(BM_NoiseFilter);

void BM_StayPointExtraction(benchmark::State& state) {
  const traj::RawTrajectory cleaned =
      traj::FilterNoise(TestTrajectory()).cleaned;
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj::ExtractStayPoints(cleaned));
  }
  state.SetItemsProcessed(state.iterations() * cleaned.size());
}
BENCHMARK(BM_StayPointExtraction);

void BM_CandidateGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj::GenerateCandidates(n));
  }
}
BENCHMARK(BM_CandidateGeneration)->Arg(5)->Arg(10)->Arg(14);

void BM_PoiIndexCount100m(benchmark::State& state) {
  const poi::PoiIndex& index = TestWorld().poi_index();
  Rng rng(31);
  const geo::BoundingBox& b = TestWorld().bounds();
  for (auto _ : state) {
    const geo::LatLng center{rng.Uniform(b.min.lat, b.max.lat),
                             rng.Uniform(b.min.lng, b.max.lng)};
    benchmark::DoNotOptimize(index.CountByCategory(center, 100.0));
  }
}
BENCHMARK(BM_PoiIndexCount100m);

void BM_PoiBruteForceCount100m(benchmark::State& state) {
  // The design-choice ablation: counting without the grid index.
  const auto& pois = TestWorld().poi_index().pois();
  Rng rng(31);
  const geo::BoundingBox& b = TestWorld().bounds();
  for (auto _ : state) {
    const geo::LatLng center{rng.Uniform(b.min.lat, b.max.lat),
                             rng.Uniform(b.min.lng, b.max.lng)};
    poi::CategoryCounts counts{};
    for (const poi::Poi& p : pois) {
      if (geo::DistanceMeters(center, p.pos) <= 100.0) {
        ++counts[static_cast<int>(p.category)];
      }
    }
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_PoiBruteForceCount100m);

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(41);
  const nn::Matrix a = nn::Matrix::Uniform(n, n, 1.0f, &rng);
  const nn::Matrix b = nn::Matrix::Uniform(n, n, 1.0f, &rng);
  nn::Matrix out(n, n);
  for (auto _ : state) {
    out.Fill(0.0f);
    nn::MatMulAccumulate(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmSparseAware(benchmark::State& state) {
  // Same dense operands through the sparse-aware kernel. The dense
  // MatMulAccumulate used to carry an `if (a_ip == 0.0f) continue;` guard
  // in its inner loop; on dense activations the branch never skips work
  // but still costs a compare per multiply and blocks vectorization, so
  // the guard now lives only in MatMulAccumulateSparseA (profitable for
  // mostly-zero `a`, e.g. one-hot rows). Compare against BM_Gemm at the
  // same size to see the dense-path win.
  const int n = static_cast<int>(state.range(0));
  Rng rng(41);
  const nn::Matrix a = nn::Matrix::Uniform(n, n, 1.0f, &rng);
  const nn::Matrix b = nn::Matrix::Uniform(n, n, 1.0f, &rng);
  nn::Matrix out(n, n);
  for (auto _ : state) {
    out.Fill(0.0f);
    nn::MatMulAccumulateSparseA(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmSparseAware)->Arg(32)->Arg(64)->Arg(128);

// MatMul's two gradient products at the detector's backward shapes: a
// [rows x 64] hidden state times a 64 x 256 (4 gates x 64 units) weight.
// Arg is rows, the mini-batch B. Weight gradient: W.grad [64 x 256] +=
// h^T [64 x rows] * g [rows x 256].
void BM_GemmTransposeA(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Rng rng(43);
  const nn::Matrix h = nn::Matrix::Uniform(rows, 64, 1.0f, &rng);
  const nn::Matrix g = nn::Matrix::Uniform(rows, 256, 1.0f, &rng);
  nn::Matrix w_grad(64, 256);
  for (auto _ : state) {
    nn::MatMulTransposeAAccumulate(h, g, &w_grad);
    benchmark::DoNotOptimize(w_grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2LL * rows * 64 * 256);
}
BENCHMARK(BM_GemmTransposeA)->Arg(8)->Arg(32)->Arg(128);

// Input gradient: h.grad [rows x 64] += g [rows x 256] * W^T, with W^T
// built once outside the loop as nn::Backward's per-pass cache does.
void BM_GemmTransposeB(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Rng rng(44);
  const nn::Matrix g = nn::Matrix::Uniform(rows, 256, 1.0f, &rng);
  const nn::Matrix w = nn::Matrix::Uniform(64, 256, 1.0f, &rng);
  const nn::Matrix w_t = nn::Transposed(w);
  nn::Matrix h_grad(rows, 64);
  for (auto _ : state) {
    nn::MatMulTransposeBAccumulate(g, w, &h_grad, &w_t);
    benchmark::DoNotOptimize(h_grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2LL * rows * 256 * 64);
}
BENCHMARK(BM_GemmTransposeB)->Arg(8)->Arg(32)->Arg(128);

// The gate nonlinearities at the LSTM gate shapes [rows x cols] (Args):
// nn/vmath.h's dispatched array forms against the libm loops the Tanh,
// Sigmoid and SoftmaxRows kernels ran before. Inputs are uniform in
// [-4, 4], the bulk of the gate pre-activations; items are elements.
std::vector<float> GateInputs(const benchmark::State& state) {
  const int n = static_cast<int>(state.range(0) * state.range(1));
  Rng rng(45);
  const nn::Matrix x = nn::Matrix::Uniform(1, n, 4.0f, &rng);
  return std::vector<float>(x.data(), x.data() + n);
}

template <void (*kArrayFn)(const float*, float*, int)>
void BM_VmathArray(benchmark::State& state) {
  const std::vector<float> x = GateInputs(state);
  std::vector<float> y(x.size());
  const int n = static_cast<int>(x.size());
  for (auto _ : state) {
    kArrayFn(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <float (*kScalarFn)(float)>
void BM_LibmLoop(benchmark::State& state) {
  const std::vector<float> x = GateInputs(state);
  std::vector<float> y(x.size());
  const size_t n = x.size();
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) y[i] = kScalarFn(x[i]);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

float LibmExp(float x) { return std::exp(x); }
float LibmTanh(float x) { return std::tanh(x); }
float LibmSigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void GateShapes(benchmark::internal::Benchmark* b) {
  b->Args({3, 64})->Args({8, 32})->Args({8, 256});
}

void BM_VExp(benchmark::State& state) {
  BM_VmathArray<nn::vmath::ExpArray>(state);
}
void BM_VTanh(benchmark::State& state) {
  BM_VmathArray<nn::vmath::TanhArray>(state);
}
void BM_VSigmoid(benchmark::State& state) {
  BM_VmathArray<nn::vmath::SigmoidArray>(state);
}
void BM_LibmExp(benchmark::State& state) { BM_LibmLoop<LibmExp>(state); }
void BM_LibmTanh(benchmark::State& state) { BM_LibmLoop<LibmTanh>(state); }
void BM_LibmSigmoid(benchmark::State& state) {
  BM_LibmLoop<LibmSigmoid>(state);
}
BENCHMARK(BM_VExp)->Apply(GateShapes);
BENCHMARK(BM_LibmExp)->Apply(GateShapes);
BENCHMARK(BM_VTanh)->Apply(GateShapes);
BENCHMARK(BM_LibmTanh)->Apply(GateShapes);
BENCHMARK(BM_VSigmoid)->Apply(GateShapes);
BENCHMARK(BM_LibmSigmoid)->Apply(GateShapes);

// The same kernels through one SIMD lane each, so the AVX2 and AVX-512
// lanes compare on a host that has both. Skipped where the ISA is absent.
template <void (*kArrayFn)(const float*, float*, int), bool (*kAvailable)()>
void BM_VmathLane(benchmark::State& state) {
  if (!kAvailable()) {
    state.SkipWithError("ISA not available on this host");
    return;
  }
  BM_VmathArray<kArrayFn>(state);
}

namespace vi = nn::vmath::internal;
constexpr auto kAvx2 = nn::internal::GemmAvx2Available;
constexpr auto kAvx512 = nn::internal::GemmAvx512Available;
BENCHMARK(BM_VmathLane<vi::ExpArrayAvx2, kAvx2>)
    ->Name("BM_VExpAvx2")->Apply(GateShapes);
BENCHMARK(BM_VmathLane<vi::ExpArrayAvx512, kAvx512>)
    ->Name("BM_VExpAvx512")->Apply(GateShapes);
BENCHMARK(BM_VmathLane<vi::TanhArrayAvx2, kAvx2>)
    ->Name("BM_VTanhAvx2")->Apply(GateShapes);
BENCHMARK(BM_VmathLane<vi::TanhArrayAvx512, kAvx512>)
    ->Name("BM_VTanhAvx512")->Apply(GateShapes);
BENCHMARK(BM_VmathLane<vi::SigmoidArrayAvx2, kAvx2>)
    ->Name("BM_VSigmoidAvx2")->Apply(GateShapes);
BENCHMARK(BM_VmathLane<vi::SigmoidArrayAvx512, kAvx512>)
    ->Name("BM_VSigmoidAvx512")->Apply(GateShapes);

void BM_LstmForwardSequence(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  Rng rng(51);
  nn::LstmCell lstm(32, 32, &rng);
  const nn::Variable x =
      nn::Variable::Constant(nn::Matrix::Uniform(steps, 32, 1.0f, &rng));
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.ForwardSequence(x).value().data());
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_LstmForwardSequence)->Arg(16)->Arg(64)->Arg(256);

// The batch-major refactor's headline comparison: running B sequences one
// at a time (the retired row-vector path) versus one time-major batched
// forward over the same B sequences. Arg is B; sequences are 32 steps of
// 32 features through a 32-unit cell. The batched path issues one
// [B x d] GEMM per gate per step instead of B [1 x d] GEMVs and builds
// ~B x fewer autograd nodes.
void BM_LstmSequenceRowLoop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr int kSteps = 32;
  Rng rng(51);
  nn::LstmCell lstm(32, 32, &rng);
  std::vector<nn::Variable> sequences;
  sequences.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    sequences.push_back(
        nn::Variable::Constant(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng)));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    for (const nn::Variable& x : sequences) {
      benchmark::DoNotOptimize(lstm.ForwardSequence(x).value().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch * kSteps);
}
BENCHMARK(BM_LstmSequenceRowLoop)->Arg(1)->Arg(16)->Arg(64);

void BM_LstmSequenceBatched(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr int kSteps = 32;
  Rng rng(51);
  nn::LstmCell lstm(32, 32, &rng);
  std::vector<nn::Matrix> backing;
  backing.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    backing.push_back(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng));
  }
  std::vector<nn::SeqView> views;
  views.reserve(batch);
  for (const nn::Matrix& m : backing) {
    views.push_back({nn::SeqSpan{&m, 0, m.rows()}});
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    const nn::StepBatch input = nn::PackViews(views);
    benchmark::DoNotOptimize(
        lstm.ForwardSequenceSteps(input).back().value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * kSteps);
}
BENCHMARK(BM_LstmSequenceBatched)->Arg(1)->Arg(16)->Arg(64);

void BM_LstmTrainStep(benchmark::State& state) {
  // Forward + backward through a 64-step sequence (training-path cost).
  Rng rng(61);
  nn::LstmCell lstm(32, 32, &rng);
  const nn::Variable x =
      nn::Variable::Constant(nn::Matrix::Uniform(64, 32, 1.0f, &rng));
  const nn::Variable target =
      nn::Variable::Constant(nn::Matrix::Uniform(64, 32, 1.0f, &rng));
  for (auto _ : state) {
    const nn::Variable loss = nn::MseLoss(lstm.ForwardSequence(x), target);
    nn::Backward(loss);
    lstm.ZeroGrad();
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_LstmTrainStep);

// Training-path version of the row-loop vs batched comparison: forward +
// backward over B 32-step sequences, accumulating gradients either one
// sequence at a time or through a single batched graph.
void BM_LstmTrainRowLoop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr int kSteps = 32;
  Rng rng(61);
  nn::LstmCell lstm(32, 32, &rng);
  std::vector<nn::Variable> sequences;
  std::vector<nn::Variable> targets;
  for (int i = 0; i < batch; ++i) {
    sequences.push_back(
        nn::Variable::Constant(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng)));
    targets.push_back(
        nn::Variable::Constant(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng)));
  }
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      const nn::Variable loss =
          nn::MseLoss(lstm.ForwardSequence(sequences[i]), targets[i]);
      nn::Backward(loss);
      benchmark::DoNotOptimize(loss.value().data());
    }
    lstm.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * batch * kSteps);
}
BENCHMARK(BM_LstmTrainRowLoop)->Arg(16)->Arg(64);

void BM_LstmTrainBatched(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr int kSteps = 32;
  Rng rng(61);
  nn::LstmCell lstm(32, 32, &rng);
  std::vector<nn::Matrix> backing;
  for (int i = 0; i < batch; ++i) {
    backing.push_back(nn::Matrix::Uniform(kSteps, 32, 1.0f, &rng));
  }
  std::vector<nn::SeqView> views;
  for (const nn::Matrix& m : backing) {
    views.push_back({nn::SeqSpan{&m, 0, m.rows()}});
  }
  const nn::Variable target =
      nn::Variable::Constant(nn::Matrix::Uniform(batch, 32, 1.0f, &rng));
  for (auto _ : state) {
    const nn::StepBatch input = nn::PackViews(views);
    const std::vector<nn::Variable> hidden =
        lstm.ForwardSequenceSteps(input);
    nn::Variable loss;
    for (const nn::Variable& h : hidden) {
      const nn::Variable step = nn::MseLoss(h, target);
      loss = loss.defined() ? nn::Add(loss, step) : step;
    }
    nn::Backward(loss);
    lstm.ZeroGrad();
    benchmark::DoNotOptimize(loss.value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * kSteps);
}
BENCHMARK(BM_LstmTrainBatched)->Arg(16)->Arg(64);

// Thread sweep for the per-trajectory parallel Preprocess path: the full
// pipeline (noise filter -> stay points -> segmentation -> features with
// POI radius counts) over a fixed batch of trajectories, fanned out on
// the shared pool with Arg = lanes; Arg(1) is the serial baseline. The
// serial per-item time is cached from the Arg(1) run so later args can
// report speedup, and each run appends a JSON-lines record to
// BENCH_parallel.json alongside the fig8 Detect sweep.
void BM_ParallelPreprocess(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  static const std::vector<traj::RawTrajectory>* batch = [] {
    // Leaked on purpose (function-local singleton).
    auto* trajectories =
        new std::vector<traj::RawTrajectory>();  // lead-lint: allow(raw-new)
    const sim::TruckSimulator simulator(&TestWorld(), sim::SimOptions(),
                                        traj::NoiseFilterOptions(),
                                        traj::StayPointOptions());
    Rng rng(71);
    for (int i = 0; i < 16; ++i) {
      auto day = simulator.SimulateDay("bench", "bench", i, &rng);
      if (day.has_value()) trajectories->push_back(day->raw);
    }
    return trajectories;
  }();
  static double serial_per_item = 0.0;
  const core::PipelineOptions options;
  double elapsed = 0.0;
  int64_t items = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    ThreadPool::Global().ParallelFor(
        static_cast<int64_t>(batch->size()), lanes, [&](int64_t i) {
          auto pt = core::ProcessTrajectory(
              (*batch)[i], TestWorld().poi_index(), options, nullptr);
          benchmark::DoNotOptimize(pt);
        });
    elapsed +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    items += static_cast<int64_t>(batch->size());
  }
  const double per_item = items > 0 ? elapsed / static_cast<double>(items)
                                    : 0.0;
  if (lanes == 1) serial_per_item = per_item;
  const double speedup =
      per_item > 0.0 && serial_per_item > 0.0 ? serial_per_item / per_item
                                              : 0.0;
  state.counters["speedup_vs_serial"] = speedup;
  char record[256];
  std::snprintf(record, sizeof(record),
                "{\"bench\": \"micro_preprocess\", "
                "\"strategy\": \"deterministic\", \"threads\": %d, "
                "\"seconds_per_trajectory\": %.6f, "
                "\"speedup_vs_serial\": %.3f}",
                lanes, per_item, speedup);
  std::ofstream("BENCH_parallel.json", std::ios::app) << record << "\n";
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_ParallelPreprocess)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Disabled-path cost of the span macro — the acceptance bar for leaving
// LEAD_TRACE_SCOPE in hot library code. With no sink attached this must
// be a relaxed atomic load plus a branch: low single-digit ns, no
// allocation, no lock, no clock read.
void BM_TraceOverhead(benchmark::State& state) {
  LEAD_CHECK(!obs::Tracer::Global().enabled());
  // The flight recorder is on by default; park it so this measures the
  // everything-off fast path the acceptance bar is written against.
  const bool was_recording = obs::Recorder::Global().enabled();
  obs::Recorder::Global().SetEnabled(false);
  for (auto _ : state) {
    LEAD_TRACE_SCOPE(obs::kCatPool, "bm_span");
  }
  obs::Recorder::Global().SetEnabled(was_recording);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverhead);

// Flight-recorder-only cost (tracing off, recorder on): two clock reads
// plus sixteen relaxed word stores into the per-thread ring. This is the
// always-on price every span pays in production; the bar is staying
// within 2x of BM_TraceOverheadEnabled's per-span cost.
void BM_RecorderSpan(benchmark::State& state) {
  LEAD_CHECK(!obs::Tracer::Global().enabled());
  const bool was_recording = obs::Recorder::Global().enabled();
  obs::Recorder::Global().SetEnabled(true);
  for (auto _ : state) {
    LEAD_TRACE_SCOPE(obs::kCatPool, "bm_span");
  }
  obs::Recorder::Global().SetEnabled(was_recording);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderSpan);

// Enabled-path cost: two clock reads plus one buffer append per span.
// The per-thread buffer fills after kEventsPerThread iterations, so long
// runs measure a mix of append and counted-drop; both are the "tracing
// on" steady-state costs.
void BM_TraceOverheadEnabled(benchmark::State& state) {
  const bool was_recording = obs::Recorder::Global().enabled();
  obs::Recorder::Global().SetEnabled(false);
  obs::Tracer::Global().Start();
  for (auto _ : state) {
    LEAD_TRACE_SCOPE(obs::kCatPool, "bm_span");
  }
  obs::Tracer::Global().Stop();
  obs::Recorder::Global().SetEnabled(was_recording);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverheadEnabled);

void BM_FullProcessingPipeline(benchmark::State& state) {
  const traj::RawTrajectory& raw = TestTrajectory();
  const core::PipelineOptions options;
  for (auto _ : state) {
    auto pt = core::ProcessTrajectory(raw, TestWorld().poi_index(), options,
                                      nullptr);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_FullProcessingPipeline);

}  // namespace

BENCHMARK_MAIN();
