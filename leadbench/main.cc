// leadbench: one process runs one workload, untraced (end-to-end metrics)
// or traced (per-layer metrics), checks the library's outputs and prints
//   metric <name> <value> <unit>      one line per metric
//   record {...}                      run description for the provenance log
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The last line is the result; the exit code is 0 only when every
// operation succeeded and every output check passed.
//
//   leadbench --workload detect_mixed|detect_dense|train --seed N
//             --seconds S --trace 0|1 --threads T --pool-lanes L
//             --scratch-dir DIR [--smoke]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "leadbench/leadbench.h"
#include "obs/trace.h"

#ifndef LEADBENCH_BUILD_TYPE
#define LEADBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr char kCompiler[] = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr char kCompiler[] = "gcc " __VERSION__;
#else
constexpr char kCompiler[] = "unknown";
#endif

using namespace lead;
using namespace lead::leadbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The catalogue; BENCHMARK.json lists the same names and units and
// run.py's self-test checks that they agree.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"success_rate", "fraction"},
    {"detect_points_per_s", "points/s"},
    {"detect_p50_ms", "ms"},
    {"detect_p99_ms", "ms"},
    {"detect_acc", "%"},
    {"train_s", "s"},
    {"ae_val_mse", "mse"},
    {"det_val_kld", "nats"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.lead.preprocess_us", "us"},
    {"traj.clean_segment_us", "us"},
    {"core.features.extract_us", "us"},
    {"poi.queries_per_traj", "count"},
    {"core.autoencoder.encode_us", "us"},
    {"core.detector.score_us", "us"},
    {"nn.allocs_per_detect", "count"},
    {"common.pool.busy_frac", "fraction"},
    {"input.points_per_traj", "count"},
    {"input.stays_per_traj", "count"},
    {"input.candidates_per_traj", "count"},
    {"input.share_3_5_pct", "%"},
    {"input.share_6_8_pct", "%"},
    {"input.share_9_11_pct", "%"},
    {"input.share_12_14_pct", "%"},
    {"core.pipeline.prepare_ms", "ms"},
    {"core.lead.ae_stage_s", "s"},
    {"core.lead.det_stage_s", "s"},
    {"core.lead.train_unattributed_s", "s"},
    {"core.autoencoder.fwd_ms", "ms"},
    {"core.detector.fwd_ms", "ms"},
    {"nn.backward.ae_ms", "ms"},
    {"nn.backward.det_ms", "ms"},
    {"nn.adam.ae_ms", "ms"},
    {"nn.adam.det_ms", "ms"},
    {"nn.allocs_per_ae_step", "count"},
    {"nn.allocs_per_det_step", "count"},
    {"trace_overhead_pct", "%"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: leadbench --workload detect_mixed|detect_dense|train "
               "--seed N --seconds S --trace 0|1 --threads T --pool-lanes L "
               "--scratch-dir DIR [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t process_clock_us = obs::NowMicros();
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--threads") {
      config.threads = std::atoi(argv[++i]);
    } else if (arg == "--pool-lanes") {
      config.pool_lanes = std::atoi(argv[++i]);
    } else if (arg == "--scratch-dir") {
      config.scratch_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (config.threads < 1 || config.pool_lanes < 1 ||
      config.scratch_dir.empty()) {
    return Usage();
  }

  WorkloadResult result;
  if (config.workload == "detect_mixed" || config.workload == "detect_dense") {
    result = RunDetectWorkload(config, config.workload == "detect_dense",
                               process_clock_us);
  } else if (config.workload == "train") {
    result = RunTrainWorkload(config, process_clock_us);
  } else {
    return Usage();
  }
  if (!config.trace) {
    result.end_to_end["peak_rss_mb"] = PeakRssMb();
    result.end_to_end["success_rate"] =
        result.attempted > 0
            ? 1.0 - static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted)
            : 0.0;
  }

  // Metrics of this mode, in catalogue order; a metric a workload does
  // not exercise reads 0.
  const std::map<std::string, double>& values =
      config.trace ? result.per_layer : result.end_to_end;
  std::string metrics;
  for (const MetricSpec& spec :
       config.trace ? std::vector<MetricSpec>(std::begin(kPerLayer),
                                              std::end(kPerLayer))
                    : std::vector<MetricSpec>(std::begin(kEndToEnd),
                                              std::end(kEndToEnd))) {
    const auto it = values.find(spec.name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      result.Fail(std::string("non-finite metric ") + spec.name);
      value = 0.0;
    }
    std::printf("metric %s %.6g %s\n", spec.name, value, spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  for (const std::string& why : result.failures) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0;

  std::string inputs;
  for (const auto& [name, value] : result.inputs) {
    if (!inputs.empty()) inputs += ", ";
    inputs += JsonString(name) + ": " + JsonNumber(value);
  }
  std::string failures;
  for (const std::string& why : result.failures) {
    if (!failures.empty()) failures += ", ";
    failures += JsonString(why);
  }
  std::printf(
      "record {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"threads\": %d, \"pool_lanes\": %d, \"smoke\": %s, "
      "\"compiler\": %s, "
      "\"build_type\": %s, \"inputs\": {%s}, \"failures\": [%s], "
      "\"metrics\": {%s}}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0,
      config.threads, config.pool_lanes, config.smoke ? "true" : "false",
      JsonString(kCompiler).c_str(),
      JsonString(LEADBENCH_BUILD_TYPE).c_str(), inputs.c_str(),
      failures.c_str(), metrics.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
