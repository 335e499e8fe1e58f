// pase_cli — strategy search for models described in the pase-model text
// format (see src/io/model_parser.h), no recompilation needed.
//
//   pase_cli <model-file> [--devices N] [--machine NAME]
//            [--machine-spec FILE]
//            [--memory-gb G] [--baseline] [--export FILE] [--trace FILE]
//            [--deadline SECONDS] [--strict] [--beam-width N]
//            [--threads N] [--comm-model MODE]
//            [--max-model-nodes N]
//            [--zoo NAME]
//            [--split-dims LIST] [--pipeline-stages N|auto]
//            [--faults SPEC] [--fault-aware] [--robustness N] [--seed S]
//
// Strategy-space options: --split-dims opens extra per-layer split classes
// beyond the paper's batch/parameter space — comma-separated from
// {batch,param,spatial,channel} (or "all"/"none"); the default
// "batch,param" reproduces the legacy space bitwise. --pipeline-stages
// adds the inter-stage pipeline dimension: the graph is cut into N stages
// (or the best count with "auto"), each stage re-parallelized by the DP on
// its share of the devices; 1 (the default) disables pipelining bitwise.
//
// Model source: --zoo NAME solves a built-in zoo model (e.g.
// transformer_stack_1000) instead of a model file.
//
// Machines: --machine NAME names a preset of kMachinePresets
// (src/cost/machine.h), as the serve "machine" field does; --help lists them.
//
// Search engine options: --threads N fans the DP's per-vertex cost
// evaluations across N worker threads (0 = hardware concurrency, the
// default; results are bit-identical at any setting).
//
// Heterogeneous clusters: --machine-spec FILE loads a machine description
// (JSON; src/hetero/machine_file.h) with per-device FLOPS and per-link
// bandwidth tiers. The search then prices uneven proportional shards and
// the actual bottleneck link of every placed group (src/hetero), and the
// simulator replays strategies under the same heterogeneous timing. A
// uniform spec reproduces the named-machine results bit-identically.
// Exclusive with --machine; --devices, when given, must match the spec.
//
// Collective pricing: --comm-model {simple|auto|ring|tree|hd|hier} selects
// how internal collectives are priced by both the analytical cost model
// and the simulator (src/comm). `simple` (the default) keeps the paper's
// ring-bytes pricing bit-exactly; `auto` picks the cheapest of
// ring/tree/halving-doubling/hierarchical per message shape; the named
// modes force one algorithm family.
//
// Prints the best strategy (Table II style), its analytical cost, search
// statistics and simulated step time; --baseline adds the data-parallel
// comparison; --export writes the strategy in the pase-strategy format;
// --trace writes the simulated step timeline as Chrome trace-event JSON.
//
// Robustness options:
//   --faults SPEC    inject faults (see src/fault/fault_spec.h), e.g.
//                    "straggler=0:2,links=0.5:1,jitter=0.1,dropout=1e-4:100:30";
//                    prints a healthy-vs-faulted robustness report
//   --fault-aware    run the strategy search against the degraded machine
//                    instead of the healthy one
//   --robustness N   jittered scenarios for the report (default 16)
//   --seed S         fault-scenario seed (default 1)
//
// Degradation options: when the DP's table/work guard trips or --deadline
// expires, the search falls back to a bounded beam search and still emits a
// usable strategy, clearly labeled DEGRADED (exit 0). --strict restores the
// old hard failure; --beam-width sizes the fallback.
//
// Exit codes:
//   0  success (including a labeled degraded strategy)
//   1  runtime error (unreadable file, bad model, guard trip under --strict)
//   2  usage error (unknown flag, missing or malformed flag value)
//   3  infeasible (no configuration satisfies the memory budget)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "core/dp_solver.h"
#include "cost/machine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/strategy.h"
#include "fault/fault_model.h"
#include "fault/robustness.h"
#include "hetero/hetero.h"
#include "hetero/machine_file.h"
#include "io/model_parser.h"
#include "io/strategy_io.h"
#include "models/models.h"
#include "pipeline/pipeline.h"
#include "search/baselines.h"
#include "sim/memory.h"
#include "sim/simulator.h"

using namespace pase;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInfeasible = 3;

/// The preset names, '|'-separated, for --help and the --machine error.
std::string machine_names() {
  std::string names;
  for (const MachinePreset& preset : kMachinePresets)
    names += (names.empty() ? "" : "|") + std::string(preset.name);
  return names;
}

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s <model-file> [--devices N] [--machine %s]\n"
      "          [--machine-spec FILE]\n"
      "          [--memory-gb G] [--baseline] [--export FILE] [--trace FILE]\n"
      "          [--trace-out FILE] [--metrics-out FILE]\n"
      "          [--metrics-format json|prom]\n"
      "          [--deadline SECONDS] [--strict] [--beam-width N]\n"
      "          [--threads N]\n"
      "          [--comm-model simple|auto|ring|tree|hd|hier]\n"
      "          [--max-table-entries N] [--max-combinations N]\n"
      "          [--max-model-nodes N]\n"
      "          [--zoo NAME]\n"
      "          [--split-dims LIST] [--pipeline-stages N|auto]\n"
      "          [--microbatches N]\n"
      "          [--faults SPEC] [--fault-aware] [--robustness N] [--seed "
      "S]\n"
      "          [--help]\n"
      "\n"
      "strategy space: --split-dims LIST opens extra per-layer split\n"
      "            classes — comma-separated from batch, param, spatial,\n"
      "            channel (or 'all'/'none'); the default 'batch,param' is\n"
      "            the paper's space, bit-identical to omitting the flag.\n"
      "            spatial opens locked H/W (and sequence) dims with halo-\n"
      "            exchange pricing, channel opens filter taps and per-head\n"
      "            channels; --pipeline-stages N cuts the graph into N\n"
      "            pipeline stages ('auto' searches the stage count; 1, the\n"
      "            default, disables pipelining bitwise); N must divide the\n"
      "            device count; --microbatches N sets the micro-batches in\n"
      "            flight for the pipeline fill/drain model (default 8)\n"
      "model:      --zoo NAME solves a built-in zoo model (alexnet, mlp,\n"
      "            transformer, transformer_stack_<N>, ...) instead of a\n"
      "            model file\n"
      "observability: --trace-out FILE records the search itself (DP phases\n"
      "            and worker tasks) as Chrome trace-event JSON — distinct\n"
      "            from --trace, which records the simulated step timeline;\n"
      "            --metrics-out FILE dumps the search metrics snapshot\n"
      "            (counters/histograms/gauges; the counter and histogram\n"
      "            sections are bit-identical at any --threads setting);\n"
      "            --metrics-format selects json (default) or prom\n"
      "            (Prometheus text exposition) for --metrics-out\n"
      "search engine: --threads N worker threads for the DP fan-out\n"
      "            (0 = hardware concurrency, the default; results are\n"
      "            bit-identical at any thread count)\n"
      "input limits: --max-model-nodes N rejects models with more than N\n"
      "            layers before any solver work (0 = unlimited, the\n"
      "            default); dimension products that would overflow 64-bit\n"
      "            table sizing are always rejected\n"
      "machine spec: --machine-spec FILE loads a heterogeneous machine\n"
      "            description (JSON: per-device FLOPS, per-link bandwidth\n"
      "            tiers; src/hetero/machine_file.h). Search and simulation\n"
      "            then price uneven shards and the bottleneck link of each\n"
      "            placed group; a uniform spec reproduces the named\n"
      "            machines bit-identically. Exclusive with --machine;\n"
      "            --devices, when given, must match the spec's count\n"
      "comm model: collective pricing for costs and simulation — simple\n"
      "            (paper's ring-bytes form, the default), auto (cheapest\n"
      "            algorithm per message), or a forced algorithm family\n"
      "            (ring, tree, hd = halving-doubling, hier = two-level)\n"
      "fault spec: comma-separated straggler=RANK:SLOWDOWN, links=INTRA:INTER,"
      "\n            jitter=SIGMA, dropout=RATE:INTERVAL:RESTART[:WRITE]\n"
      "exit codes: 0 ok (incl. degraded strategy)  1 runtime error\n"
      "            2 usage error                   3 infeasible\n",
      argv0, machine_names().c_str());
}

int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return kExitUsage;
}

/// Strict numeric flag parsing: the whole value must parse, and the error
/// names the flag and the offending value (no silent atoll-style zeros).
bool parse_i64_flag(const char* flag, const char* value, i64 min, i64* out) {
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (*value == '\0' || *end != '\0' || v < min) {
    std::fprintf(stderr,
                 "error: invalid value '%s' for %s (expected integer >= "
                 "%lld)\n",
                 value, flag, static_cast<long long>(min));
    return false;
  }
  *out = v;
  return true;
}

bool parse_double_flag(const char* flag, const char* value, double* out) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (*value == '\0' || *end != '\0' || v <= 0.0) {
    std::fprintf(stderr,
                 "error: invalid value '%s' for %s (expected positive "
                 "number)\n",
                 value, flag);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const char* model_path = nullptr;
  i64 devices = 8;
  bool devices_given = false;
  std::string machine_name = "1080ti";
  bool machine_given = false;
  const char* machine_spec_path = nullptr;
  double memory_gb = 0.0;
  bool baseline = false;
  const char* export_path = nullptr;
  const char* trace_path = nullptr;
  const char* trace_out_path = nullptr;
  const char* metrics_out_path = nullptr;
  bool metrics_prom = false;
  double deadline_seconds = 0.0;
  bool strict = false;
  i64 beam_width = 256;
  i64 threads = 0;  // 0 = hardware concurrency
  CommModelKind comm_kind = CommModelKind::kSimple;
  i64 max_table_entries = 0;  // 0 = DpOptions default
  i64 max_combinations = 0;
  i64 max_model_nodes = 0;  // 0 = unlimited
  const char* zoo_name = nullptr;
  SplitDims split_dims;
  bool split_dims_given = false;
  i64 pipeline_stages = 1;  // 1 = off, 0 = auto
  bool pipeline_given = false;
  i64 pipeline_microbatches = 8;
  const char* faults_arg = nullptr;
  bool fault_aware = false;
  i64 robustness_scenarios = 16;
  i64 fault_seed = 1;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: missing value for %s\n", arg);
        return false;
      }
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (std::strcmp(arg, "--devices") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 1, &devices))
        return kExitUsage;
      devices_given = true;
    } else if (std::strcmp(arg, "--machine") == 0) {
      if (!value(&v)) return kExitUsage;
      machine_name = v;
      machine_given = true;
    } else if (std::strcmp(arg, "--machine-spec") == 0) {
      if (!value(&machine_spec_path)) return kExitUsage;
    } else if (std::strcmp(arg, "--memory-gb") == 0) {
      if (!value(&v) || !parse_double_flag(arg, v, &memory_gb))
        return kExitUsage;
    } else if (std::strcmp(arg, "--baseline") == 0) {
      baseline = true;
    } else if (std::strcmp(arg, "--export") == 0) {
      if (!value(&export_path)) return kExitUsage;
    } else if (std::strcmp(arg, "--trace") == 0) {
      if (!value(&trace_path)) return kExitUsage;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if (!value(&trace_out_path)) return kExitUsage;
    } else if (std::strcmp(arg, "--metrics-out") == 0) {
      if (!value(&metrics_out_path)) return kExitUsage;
    } else if (std::strcmp(arg, "--metrics-format") == 0) {
      if (!value(&v)) return kExitUsage;
      if (std::strcmp(v, "json") == 0) {
        metrics_prom = false;
      } else if (std::strcmp(v, "prom") == 0) {
        metrics_prom = true;
      } else {
        std::fprintf(stderr,
                     "error: --metrics-format must be 'json' or 'prom'\n");
        return kExitUsage;
      }
    } else if (std::strcmp(arg, "--deadline") == 0) {
      if (!value(&v) || !parse_double_flag(arg, v, &deadline_seconds))
        return kExitUsage;
    } else if (std::strcmp(arg, "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(arg, "--beam-width") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 1, &beam_width))
        return kExitUsage;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 0, &threads))
        return kExitUsage;
    } else if (std::strcmp(arg, "--comm-model") == 0) {
      if (!value(&v)) return kExitUsage;
      const auto kind = parse_comm_model_kind(v);
      if (!kind) {
        std::fprintf(stderr,
                     "error: invalid value '%s' for --comm-model (expected "
                     "simple, auto, ring, tree, hd or hier)\n",
                     v);
        return kExitUsage;
      }
      comm_kind = *kind;
    } else if (std::strcmp(arg, "--help") == 0) {
      print_usage(stdout, argv[0]);
      return kExitOk;
    } else if (std::strcmp(arg, "--max-table-entries") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 1, &max_table_entries))
        return kExitUsage;
    } else if (std::strcmp(arg, "--max-combinations") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 1, &max_combinations))
        return kExitUsage;
    } else if (std::strcmp(arg, "--max-model-nodes") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 0, &max_model_nodes))
        return kExitUsage;
    } else if (std::strcmp(arg, "--zoo") == 0) {
      if (!value(&zoo_name)) return kExitUsage;
    } else if (std::strcmp(arg, "--split-dims") == 0) {
      if (!value(&v)) return kExitUsage;
      const auto parsed = parse_split_dims(v);
      if (!parsed) {
        std::fprintf(stderr,
                     "error: invalid value '%s' for --split-dims (expected a "
                     "comma-separated subset of batch, param, spatial, "
                     "channel, or 'all'/'none')\n",
                     v);
        return kExitUsage;
      }
      split_dims = *parsed;
      split_dims_given = true;
    } else if (std::strcmp(arg, "--pipeline-stages") == 0) {
      if (!value(&v)) return kExitUsage;
      if (std::strcmp(v, "auto") == 0) {
        pipeline_stages = 0;
      } else if (!parse_i64_flag(arg, v, 1, &pipeline_stages)) {
        return kExitUsage;
      }
      pipeline_given = true;
    } else if (std::strcmp(arg, "--microbatches") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 1, &pipeline_microbatches))
        return kExitUsage;
    } else if (std::strcmp(arg, "--faults") == 0) {
      if (!value(&faults_arg)) return kExitUsage;
    } else if (std::strcmp(arg, "--fault-aware") == 0) {
      fault_aware = true;
    } else if (std::strcmp(arg, "--robustness") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 1, &robustness_scenarios))
        return kExitUsage;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 0, &fault_seed))
        return kExitUsage;
    } else if (arg[0] != '-' && !model_path) {
      model_path = arg;
    } else {
      std::fprintf(stderr, "error: unknown or repeated argument '%s'\n", arg);
      return usage(argv[0]);
    }
  }
  if (!model_path && !zoo_name) {
    std::fprintf(stderr, "error: no model file given (or use --zoo NAME)\n");
    return usage(argv[0]);
  }
  if (model_path && zoo_name) {
    std::fprintf(stderr,
                 "error: give either a model file or --zoo, not both\n");
    return kExitUsage;
  }

  Graph graph;
  std::string model_name;
  if (zoo_name) {
    auto zoo = models::zoo_graph(zoo_name);
    if (!zoo) {
      std::fprintf(stderr, "error: unknown zoo model '%s'\n", zoo_name);
      return kExitRuntime;
    }
    graph = std::move(*zoo);
    model_name = zoo_name;
    if (max_model_nodes > 0 && graph.num_nodes() > max_model_nodes) {
      std::fprintf(stderr,
                   "error: %s: model has %lld layers, more than the "
                   "--max-model-nodes limit of %lld\n",
                   zoo_name, static_cast<long long>(graph.num_nodes()),
                   static_cast<long long>(max_model_nodes));
      return kExitRuntime;
    }
  } else {
    std::ifstream in(model_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", model_path);
      return kExitRuntime;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    ModelParseLimits parse_limits;
    parse_limits.max_nodes = max_model_nodes;
    ModelParseResult model = parse_model(buffer.str(), parse_limits);
    if (!model.ok) {
      std::fprintf(stderr, "error: %s: %s\n", model_path,
                   model.error.c_str());
      return kExitRuntime;
    }
    graph = std::move(model.graph);
    model_name = model.name.empty() ? std::string(model_path) : model.name;
  }

  MachineSpec machine;
  if (machine_spec_path) {
    if (machine_given) {
      std::fprintf(stderr,
                   "error: give either --machine or --machine-spec, not "
                   "both\n");
      return kExitUsage;
    }
    std::string spec_error;
    if (!load_machine_spec(machine_spec_path, &machine, &spec_error)) {
      std::fprintf(stderr, "error: %s: %s\n", machine_spec_path,
                   spec_error.c_str());
      return kExitRuntime;
    }
    if (devices_given && devices != machine.num_devices) {
      std::fprintf(stderr,
                   "error: --devices %lld does not match the machine-spec "
                   "device count %lld\n",
                   static_cast<long long>(devices),
                   static_cast<long long>(machine.num_devices));
      return kExitUsage;
    }
    devices = machine.num_devices;
  } else if (auto preset = machine_preset(machine_name, devices)) {
    machine = std::move(*preset);
  } else {
    std::fprintf(stderr,
                 "error: invalid value '%s' for --machine (expected one of "
                 "%s)\n",
                 machine_name.c_str(), machine_names().c_str());
    return kExitUsage;
  }

  FaultSpec fault_spec;
  if (faults_arg) {
    const FaultSpecParseResult parsed = parse_fault_spec(faults_arg);
    if (!parsed.ok) {
      std::fprintf(stderr, "error: --faults: %s\n", parsed.error.c_str());
      return kExitUsage;
    }
    fault_spec = parsed.spec;
    const std::string invalid = validate_fault_spec(fault_spec, devices);
    if (!invalid.empty()) {
      std::fprintf(stderr, "error: --faults: %s\n", invalid.c_str());
      return kExitUsage;
    }
  } else if (fault_aware) {
    std::fprintf(stderr, "error: --fault-aware requires --faults\n");
    return kExitUsage;
  }
  const FaultModel fault_model(fault_spec, static_cast<u64>(fault_seed));

  // The pipeline boundary DP splits devices evenly across stages and cuts a
  // coarsened boundary set (at most ~24 candidate cuts on large graphs), so
  // an explicit stage count must divide the device count and fit the graph.
  if (pipeline_stages >= 2) {
    if (devices % pipeline_stages != 0) {
      std::fprintf(stderr,
                   "error: --pipeline-stages %lld does not divide the device "
                   "count %lld\n",
                   static_cast<long long>(pipeline_stages),
                   static_cast<long long>(devices));
      return kExitUsage;
    }
    const i64 max_stages = std::min<i64>(graph.num_nodes(), 24);
    if (pipeline_stages > max_stages) {
      std::fprintf(stderr,
                   "error: --pipeline-stages %lld exceeds the supported "
                   "maximum of %lld for this model (%lld layers, at most 24 "
                   "stages)\n",
                   static_cast<long long>(pipeline_stages),
                   static_cast<long long>(max_stages),
                   static_cast<long long>(graph.num_nodes()));
      return kExitUsage;
    }
  }

  DpOptions options;
  options.config_options.max_devices = devices;
  // The widened per-layer strategy space (--split-dims): the default
  // {batch,param} mask equals every layer's builder-declared splittable
  // dims, so omitting the flag reproduces the legacy space bitwise.
  options.config_options.split_dims = split_dims;
  // Fault-aware search prices compute/communication on the degraded
  // machine (weakest-device rule, degraded links), so the found strategy
  // is the best one for the cluster as it actually is.
  const MachineSpec search_machine =
      fault_aware ? fault_model.perturb(machine) : machine;
  // hetero_cost_params degenerates to CostParams::for_machine on uniform
  // machines (bit-identical); on heterogeneous ones (a --machine-spec with
  // mixed devices, or a fault-perturbed cluster) it prices uneven
  // proportional shards and per-group bottleneck links (src/hetero).
  options.cost_params = hetero_cost_params(search_machine, comm_kind);
  options.deadline_seconds = deadline_seconds;
  options.degraded_fallback = !strict;
  options.beam_width = beam_width;
  options.num_threads = threads;
  if (max_table_entries > 0)
    options.max_table_entries = static_cast<u64>(max_table_entries);
  if (max_combinations > 0)
    options.max_combinations = static_cast<u64>(max_combinations);
  if (memory_gb > 0)
    options.config_options.filter = memory_config_filter(memory_gb * 1e9);

  std::optional<TraceSession> trace_session;
  std::optional<MetricsRegistry> metrics_registry;
  if (trace_out_path) {
    trace_session.emplace();
    options.trace = &*trace_session;
  }
  if (metrics_out_path) {
    metrics_registry.emplace();
    options.metrics = &*metrics_registry;
  }

  // The pipeline-dimension search: more than one stage cuts the graph and
  // re-parallelizes each stage's subgraph under the same solver options
  // (split-dim gates included) on its share of the devices. One stage (the
  // default) is the plain solve, bit for bit.
  PipelineSearchOptions popts;
  popts.stages = pipeline_stages;
  popts.microbatches = pipeline_microbatches;
  const PipelinedSearchResult pipelined =
      find_best_pipelined_strategy(graph, search_machine, options, popts);
  const DpResult& r = pipelined.dp;
  if (r.status == DpStatus::kOutOfMemory) {
    std::fprintf(stderr,
                 "error: solver guard tripped (%s); rerun without --strict "
                 "for a degraded strategy\n",
                 r.guard_reason.c_str());
    return kExitRuntime;
  }
  if (r.status == DpStatus::kInfeasible) {
    std::fprintf(stderr,
                 "error: infeasible: no configuration satisfies the %.1f GB "
                 "memory budget for some layer\n",
                 memory_gb);
    return kExitInfeasible;
  }
  if (r.status == DpStatus::kDegraded) {
    std::printf("*** DEGRADED STRATEGY ***\n"
                "The exact search could not finish: %s.\n"
                "Falling back to beam search (width %lld); the strategy "
                "below is valid but\nmay be suboptimal.\n\n",
                r.guard_reason.c_str(),
                static_cast<long long>(r.beam_width_used));
  }

  const std::string title =
      model_name + " on " + std::to_string(devices) + "x " + machine.name +
      (r.status == DpStatus::kDegraded ? " [degraded]" : "") +
      (fault_aware ? " [fault-aware]" : "");
  std::fputs(strategy_table(title, graph, r.strategy).c_str(), stdout);

  const HeteroModel hetero(machine);
  const Simulator sim(graph, machine, comm_kind, !hetero.uniform());
  if (machine_spec_path)
    std::printf("machine spec: %s (%s, %lld devices%s)\n", machine_spec_path,
                machine.name.c_str(), static_cast<long long>(devices),
                hetero.uniform() ? "" : ", heterogeneous");
  if (pipelined.stages > 1) {
    // A pipelined solve aggregates many per-stage DP runs; per-solve stats
    // (K, M, thread count) are not meaningful for the composite.
    std::printf("\nlayers: %lld   stages: %lld x %lld devices   "
                "search: %.1f ms\n",
                static_cast<long long>(graph.num_nodes()),
                static_cast<long long>(pipelined.stages),
                static_cast<long long>(pipelined.devices_per_stage),
                r.elapsed_seconds * 1e3);
  } else {
    std::printf("\nlayers: %lld   K: %lld   M: %lld   search: %.1f ms%s\n",
                static_cast<long long>(graph.num_nodes()),
                static_cast<long long>(r.max_configs),
                static_cast<long long>(r.max_dependent_set),
                r.elapsed_seconds * 1e3,
                r.status == DpStatus::kDegraded ? "   [degraded: beam search]"
                                                : "");
    std::printf("threads: %lld\n", static_cast<long long>(r.threads_used));
  }
  std::printf("comm model: %s", comm_model_kind_name(comm_kind));
  if (comm_kind == CommModelKind::kAuto)
    std::printf(" (all-reduce 1 MiB x %lld devices -> %s)",
                static_cast<long long>(devices),
                comm_algo_name(sim.comm_model().chosen_algorithm(
                    Collective::kAllReduce, 1 << 20, devices)));
  std::printf("\n");
  if (split_dims_given) {
    // How much of the widened space this model actually exposes: layers
    // where a builder-locked dim became splittable under the given gates.
    i64 opened = 0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const Node& node = graph.node(v);
      for (i64 d = 0; d < node.space.rank(); ++d)
        if (!node.space.dim(d).splittable &&
            dim_splittable(node, d, split_dims)) {
          ++opened;
          break;
        }
    }
    std::printf("split dims: %s (%lld of %lld layers gain dims%s)\n",
                split_dims.to_string().c_str(),
                static_cast<long long>(opened),
                static_cast<long long>(graph.num_nodes()),
                opened == 0 && (split_dims.spatial || split_dims.channel)
                    ? "; no eligible spatial/channel dims in this model"
                    : "");
  }
  if (pipeline_given) {
    if (pipelined.stages > 1)
      std::printf("pipeline: bottleneck %.2f ms, step %.2f ms (%lld "
                  "micro-batches), no-pipeline %.2f ms, gain %.2fx\n",
                  pipelined.bottleneck_seconds * 1e3,
                  pipelined.step_seconds * 1e3,
                  static_cast<long long>(pipeline_microbatches),
                  pipelined.no_pipeline_seconds * 1e3,
                  pipelined.no_pipeline_seconds / pipelined.step_seconds);
    else
      std::printf("pipeline: 1 stage (no pipelining)\n");
  }
  std::printf("analytical cost: %.4g FLOP-equiv   simulated step: %.2f ms   "
              "per-device memory: %.2f GB\n",
              r.best_cost, sim.simulate(r.strategy).step_time_s * 1e3,
              estimate_memory(graph, r.strategy).total() / 1e9);

  if (baseline) {
    const Strategy dp = data_parallel_strategy(graph, devices);
    std::printf("data parallelism: simulated step %.2f ms, memory %.2f GB "
                "-> speedup %.2fx\n",
                sim.simulate(dp).step_time_s * 1e3,
                estimate_memory(graph, dp).total() / 1e9,
                sim.speedup(r.strategy, dp));
  }

  if (faults_arg) {
    // The report also re-solves against the degraded machine and prices
    // what adapting the strategy would buy.
    const RobustnessReport rep = evaluate_robustness_with_resolve(
        graph, machine, r.strategy, fault_model, options,
        robustness_scenarios, comm_kind);
    std::printf("\nfault injection: %s (seed %lld, %lld scenarios)\n",
                fault_spec.to_string().c_str(),
                static_cast<long long>(fault_seed),
                static_cast<long long>(robustness_scenarios));
    std::printf("healthy step: %.2f ms   degraded step: %.2f ms   "
                "expected: %.2f ms (worst %.2f, stddev %.2f)\n",
                rep.healthy.step_time_s * 1e3,
                rep.degraded.step_time_s * 1e3, rep.mean_step_time_s * 1e3,
                rep.worst_step_time_s * 1e3, rep.stddev_s * 1e3);
    std::printf("checkpoint/restart overhead: %.2f ms/step   expected "
                "slowdown under faults: %.2fx\n",
                rep.checkpoint_overhead_s * 1e3, rep.slowdown());
    std::printf("degraded re-solve: %.1f ms search, adapted step %.2f ms "
                "-> adaptation gain %.2fx\n",
                rep.resolve_seconds * 1e3,
                rep.resolve_degraded.step_time_s * 1e3,
                rep.adaptation_gain());
  }

  if (export_path) {
    std::ofstream out(export_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", export_path);
      return kExitRuntime;
    }
    out << write_strategy(graph, r.strategy);
    std::printf("strategy written to %s\n", export_path);
  }

  if (trace_path) {
    SimTrace trace;
    sim.simulate(r.strategy, &trace);
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_path);
      return kExitRuntime;
    }
    out << to_chrome_trace_json(trace);
    std::printf("chrome trace written to %s\n", trace_path);
  }

  if (trace_out_path) {
    std::ofstream out(trace_out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out_path);
      return kExitRuntime;
    }
    out << trace_session->to_chrome_json();
    std::printf("search trace written to %s (%lld spans)\n", trace_out_path,
                static_cast<long long>(trace_session->num_spans()));
  }

  if (metrics_out_path) {
    // Fold the comm library's per-algorithm selection counts into the
    // snapshot: comm.cost.* for the search's pricing backend (absent under
    // --comm-model simple, which bypasses the library), comm.sim.* for the
    // simulator's model.
    if (options.cost_params.comm)
      options.cost_params.comm->export_metrics(&*metrics_registry,
                                               "comm.cost");
    sim.comm_model().export_metrics(&*metrics_registry, "comm.sim");
    std::ofstream out(metrics_out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out_path);
      return kExitRuntime;
    }
    if (metrics_prom)
      out << metrics_registry->to_prometheus();
    else
      out << metrics_registry->to_json();
    std::printf("metrics snapshot written to %s (%lld metrics)\n",
                metrics_out_path,
                static_cast<long long>(metrics_registry->num_metrics()));
  }
  return kExitOk;
}
