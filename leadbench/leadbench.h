// LEAD benchmark: seeded simulated-Nantong inputs, the detect_mixed /
// detect_dense / train workloads, and the benchmark's own span log.
//
// The benchmark drives the library only through its public API with the
// default execution options (deterministic strategy, eager exec mode);
// the only option it sets is an explicit lane count. leadbench/README.md
// describes the workloads and metrics.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/lead.h"
#include "eval/metrics.h"
#include "sim/truck_sim.h"
#include "sim/world.h"

namespace lead::leadbench {

// Command-line settings of one benchmark process.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  // Lanes of every library call the run makes.
  int threads = 1;
  // Lanes of the traced run's thread-pool measurement.
  int pool_lanes = 1;
  // Tiny inputs for the self-test; never used for measurements.
  bool smoke = false;
  // Directory for the set-up model file and the span log.
  std::string scratch_dir;
};

// Input sizes of the workloads.
struct Sizes {
  int days_per_truck = 2;
  int setup_train_days = 16;  // detect workloads' set-up model
  int setup_val_days = 8;
  int pool_days = 1000;       // held-out truck-days each pass visits once
  int train_days = 144;       // train workload corpus
  int val_days = 18;
  // Held-out days of the train workload's detect phases: they only check
  // what its Train produced, so they are kept short (6 days beyond p99).
  int train_pool_days = 600;
};
Sizes WorkloadSizes(bool smoke);

// An untraced run sets up at least kMinSetups times and for at least
// kMinSetupSeconds in total; setup_s is the median set-up time and, on the
// detect workloads, train_s the fastest set-up Train call.
inline constexpr int kMinSetups = 5;
inline constexpr double kMinSetupSeconds = 1.0;
bool EnoughSetups(const std::vector<double>& setup_seconds);
// Epochs per stage of every Train call (early stopping off).
inline constexpr int kEpochs = 1;
// Closed-loop passes per untraced run, at least; the batch sweep runs
// between the first two. A truck-day's latency is the fastest of its
// visits: the shared host only ever adds time, in slow spells of seconds
// to minutes, so the fastest of visits a sweep apart is the run's
// steadiest reading of what the program costs.
inline constexpr int kClosedLoopPasses = 2;
// Seed of the corpora models are trained on. They are fixtures: every run
// trains on the same days, so the training losses and the set-up model are
// identical across runs and seeds, while --seed draws the held-out days
// every detect pass visits.
inline constexpr uint64_t kCorpusSeed = 0x1ead;

// What a workload reports back to main(). Metric values are keyed by
// name; main() owns the catalogue of names and units.
struct WorkloadResult {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Reasons for failed operations or output checks (first few only).
  std::vector<std::string> failures;
  // Flat description of the generated inputs for the provenance record.
  std::map<std::string, double> inputs;

  void Fail(const std::string& why);
};

// ---- Inputs -------------------------------------------------------------

// GPS sampling and stay-count mix of a generated day set.
struct DayShape {
  double sample_interval_mean_s = 120.0;
  double sample_interval_jitter_s = 25.0;
  // Shares of the 3-5 / 6-8 / 9-11 / 12-14 stay buckets.
  std::array<double, eval::kNumBuckets> bucket_shares = {0.22, 0.34, 0.25,
                                                         0.19};
};

// The paper's mix at its ~2 min sampling, and 3-5-stay days at the
// simulator's 30 s sampling floor.
DayShape MixedShape();
DayShape DenseShape();

// Generates `count` labeled truck-days of `shape` from trucks named
// "<truck_prefix>-<k>", `days_per_truck` days each. Bucket shares are met
// exactly (largest-remainder quotas); a day whose label falls outside its
// slot's bucket is simulated again. Slot i draws from
// Rng::ForStream(stream_seed, i), so the set depends only on the seed;
// slots are simulated on `threads` pool lanes.
StatusOr<std::vector<sim::SimulatedDay>> GenerateDays(
    const sim::World& world, const core::PipelineOptions& pipeline,
    const DayShape& shape, int count, int days_per_truck,
    const std::string& truck_prefix, uint64_t stream_seed, int threads);

// eval::DefaultConfig's model options with the given epoch schedule,
// early stopping off, and `threads` lanes for training and detection.
// Every other option keeps its library default.
core::LeadOptions BenchLeadOptions(int ae_epochs, int det_epochs,
                                   int threads);

// Seed of one named input stream of a run.
uint64_t StreamSeed(uint64_t seed, const std::string& stream);

// Shape summary (means, bucket shares) of a day set for the record.
void DescribeDays(const std::vector<sim::SimulatedDay>& days,
                  const std::string& prefix,
                  std::map<std::string, double>* out);
// The same summary as the input.* per-layer metrics.
void DescribeInputLayer(const std::vector<sim::SimulatedDay>& days,
                        std::map<std::string, double>* per_layer);

// ---- Spans ----------------------------------------------------------------

// In-memory span log of the traced run, written out at exit. Spans of one
// request share its id; `probe` marks calls the benchmark adds to time a
// layer the API does not expose separately.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string request;
    int parent = -1;  // index into spans(), -1 for a root
    bool probe = false;
    uint64_t start_us = 0;
    uint64_t end_us = 0;

    double micros() const { return static_cast<double>(end_us - start_us); }
  };

  // Opens a span at the current time and returns its index.
  int Begin(const std::string& name, const std::string& request, int parent,
            bool probe = false);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  // Writes every span as one JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Writes the span log next to the set-up model.
void WriteSpans(const RunConfig& config, const SpanLog& spans,
                WorkloadResult* result);

struct DetectRecord;

// Writes every closed-loop latency with its truck-day's shape, so a slow
// percentile can be traced to the days that set it.
void WriteLatencies(const RunConfig& config,
                    const std::vector<sim::SimulatedDay>& pool,
                    const DetectRecord& detect, WorkloadResult* result);

// ---- Statistics -----------------------------------------------------------

double Median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// Peak resident set size of this process in MB.
double PeakRssMb();

// ---- Shared phases --------------------------------------------------------

// Outcome of one timed Train call.
struct TrainRecord {
  double seconds = 0.0;
  double ae_val_mse = 0.0;
  // Mean of the forward and backward detectors' validation KLD.
  double det_val_kld = 0.0;
};

// Outcome of the timed detect phases over a pool.
struct DetectRecord {
  int days = 0;
  int passes = 0;        // closed-loop passes run
  double points = 0.0;   // raw GPS points of the pool
  double batch_s = 0.0;  // wall time of the batch sweep
  // Fastest closed-loop Detect latency of each truck-day over the passes.
  std::vector<double> latency_ms;
  // Every closed-loop latency, pass after pass in pool order.
  std::vector<double> visits_ms;
  // First decision per truck-day; every later visit must repeat it.
  std::vector<traj::Candidate> decisions;
  int hits = 0;  // decisions equal to the simulator's label
};

// Trains a fresh model (after copying `encoder_from`'s encoder, when
// given) and checks that every loss of the log is finite and that each
// stage logged one entry per epoch.
StatusOr<std::unique_ptr<core::LeadModel>> TrainAndCheck(
    const core::LeadOptions& options,
    const std::vector<sim::SimulatedDay>& train,
    const std::vector<sim::SimulatedDay>& val, const poi::PoiIndex& poi_index,
    const core::LeadModel* encoder_from, TrainRecord* record,
    WorkloadResult* result);

// The timed detect phases of an untraced run, each on the same pool: a
// closed-loop pass, the batch sweep, then closed-loop passes until there
// are kClosedLoopPasses and the phases have measured for --seconds. Every
// visit must repeat the first visit's decision for its truck-day.
//
// The closed loop with one caller: one Detect per truck-day, the next sent
// only when the previous one returns (an auditor checking one truck-day at
// a time).
void ClosedLoop(const core::LeadModel& model, const poi::PoiIndex& poi_index,
                const std::vector<sim::SimulatedDay>& pool,
                DetectRecord* record, WorkloadResult* result);
// The batch sweep: one DetectBatch over the pool (the nightly sweep of the
// fleet).
void BatchSweep(const core::LeadModel& model, const poi::PoiIndex& poi_index,
                const std::vector<sim::SimulatedDay>& pool,
                DetectRecord* record, WorkloadResult* result);

// End-to-end metrics from the set-up times, Train calls and detect
// phases (success_rate and peak_rss_mb are filled by main()).
void FillEndToEnd(const std::vector<double>& setup_s,
                  const std::vector<TrainRecord>& trains,
                  const DetectRecord& detect, WorkloadResult* result);

// ---- Workloads --------------------------------------------------------------

// Each runs set-up, then the timed phases or, with config.trace, the traced
// attribution pass. `process_clock_us` is obs::NowMicros() at process
// start, the origin of setup_s.
WorkloadResult RunDetectWorkload(const RunConfig& config, bool dense,
                                 uint64_t process_clock_us);
WorkloadResult RunTrainWorkload(const RunConfig& config,
                                uint64_t process_clock_us);

}  // namespace lead::leadbench
