// bench_gate — the benchmark perf-regression gate (DESIGN.md §11).
//
//   bench_gate BASELINE CURRENT... [--tolerance R] [--stale-ratio S]
//              [--tail-slack-ms MS] [--scale-baseline F]
//   bench_gate --update BASELINE CURRENT...
//
// Compares fresh bench runs (one or more CURRENT files) against a
// checked-in baseline. The baseline names what it gates: a top-level
// "gated" array of dotted metric paths ("section.key" or
// "section.group.key"); exactly those numeric leaves are gated. Each bench
// binary emits its own list, so a new bench adds gated fields without
// touching this tool, and --update keeps the list.
//
// Statistic: the element-wise MINIMUM across the CURRENT files. The
// minimum over repeated runs prices the code's uncontended cost — the
// thing a regression gate should measure — while medians and tails on a
// shared box price whatever else the machine was doing. tools/check.sh
// passes three runs. The same statistic produces the baseline:
// `--update` writes the merged minimum of the CURRENT files to BASELINE
// (the PASE_UPDATE_BENCH refresh path), so both sides of the comparison
// are min-of-3-runs. The merge is run 1 with every gated metric, and every
// other numeric leaf whose key ends in `_ms` and that all runs carry (the
// ledger's time fields and `cpu_calib_ms`), replaced by its minimum over
// the runs. Other leaves — counts, ratios, rates — stay as run 1 has them:
// for a higher-is-better field the minimum would be the worst run.
//
// The gate is two-sided:
//   - ratio = current / (baseline * scale) > 1 + tolerance  -> REGRESSION
//   - ratio < stale-ratio                                   -> STALE
// The stale side catches a forgotten baseline after a big optimisation:
// a baseline 35%+ slower than reality would silently absorb a later
// regression of the same size.
//
// Tail metrics (name contains "p99") get an additional absolute slack of
// --tail-slack-ms (default 5) on the regression side and skip the stale
// side: a p99 over ~100us of wall time can absorb a whole scheduler
// preemption (ms-scale, additive), while a genuine hit-path regression is
// multiplicative and shows up in the p50s at the strict 25% band anyway.
//
// When both sides carry a top-level "cpu_calib_ms" (bench_serve's fixed
// memory-bound spin), baseline values are additionally scaled by
// current_calib / baseline_calib: machine-state drift between runs moves
// the spin and the serve latencies together, so normalizing by it leaves
// the band measuring the code, not the box.
//
// --scale-baseline F multiplies every baseline value by F before
// comparing; check.sh uses it to self-test the gate (scale 2 must trip
// STALE, scale 0.5 must trip REGRESSION) without editing JSON in shell.
//
// A metric present in the baseline but missing from every CURRENT fails
// the gate (a renamed field must come with a baseline refresh).
//
// Exit codes: 0 pass, 1 gate failure, 2 usage/parse error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/json.h"

using namespace pase::serve;

namespace {

constexpr int kExitPass = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 2;

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s BASELINE CURRENT... [--tolerance R] [--stale-ratio S]\n"
      "          [--tail-slack-ms MS] [--scale-baseline F]\n"
      "       %s --update BASELINE CURRENT...\n"
      "\n"
      "Diffs bench runs (element-wise min over the CURRENT files) against\n"
      "the checked-in BASELINE, on the paths its top-level \"gated\" list\n"
      "names. Fails on current/baseline > 1 + R (default 0.25,\n"
      "regression) or < stale-ratio (default 0.65, stale baseline).\n"
      "p99 metrics get --tail-slack-ms (default 5) of absolute headroom\n"
      "and skip the stale side. --scale-baseline F multiplies baseline\n"
      "values by F first (gate self-test hook). --update instead writes\n"
      "the first CURRENT file to BASELINE with each gated metric, and\n"
      "each *_ms field every run has, replaced by its minimum over the\n"
      "CURRENT files (the PASE_UPDATE_BENCH refresh path in\n"
      "tools/check.sh).\n",
      argv0, argv0);
}

bool parse_positive_double(const char* flag, const char* v, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (v[0] == '\0' || *end != '\0' || parsed <= 0) {
    std::fprintf(stderr, "error: invalid value '%s' for %s\n", v, flag);
    return false;
  }
  *out = parsed;
  return true;
}

std::optional<Json> load_json(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  std::optional<Json> parsed = parse_json(buf.str(), &error);
  if (!parsed)
    std::fprintf(stderr, "error: %s: %s\n", path, error.c_str());
  return parsed;
}

struct Metric {
  std::string name;     ///< dotted path, e.g. "models.<m>.<key>"
  std::string section;  ///< top-level object ("models", "burst", ...)
  std::string group;    ///< second level, or "" for two-part paths
  std::string key;      ///< leaf field name
  double baseline = 0.0;  ///< already scaled
  bool present = false;   ///< found in at least one CURRENT file
  double current = 0.0;   ///< min across CURRENT files
};

/// The gated leaf under one run's JSON, or nullptr.
const Json* find_leaf(const Json& run, const Metric& m) {
  const Json* node = run.get(m.section);
  if (!m.group.empty()) node = node ? node->get(m.group) : nullptr;
  const Json* v = node ? node->get(m.key) : nullptr;
  return v && v->is_number() ? v : nullptr;
}

/// Fills the gated metric list from the baseline's top-level "gated" array
/// of dotted paths ("section.key" or "section.group.key"). Returns false
/// if the array is missing, or a path is malformed or missing from the
/// baseline (a renamed field must come with a baseline refresh).
bool collect(const Json& baseline, double scale,
             std::vector<Metric>* metrics) {
  const Json* gated = baseline.get("gated");
  if (!gated || !gated->is_array()) {
    std::fprintf(stderr, "error: baseline has no \"gated\" array\n");
    return false;
  }
  for (const Json& entry : gated->array) {
    if (!entry.is_string()) {
      std::fprintf(stderr, "error: non-string entry in \"gated\"\n");
      return false;
    }
    Metric m;
    m.name = entry.string;
    const size_t dot1 = m.name.find('.');
    const size_t dot2 =
        dot1 == std::string::npos ? dot1 : m.name.find('.', dot1 + 1);
    if (dot1 == std::string::npos) {
      std::fprintf(stderr, "error: gated path '%s' has no '.'\n",
                   m.name.c_str());
      return false;
    }
    m.section = m.name.substr(0, dot1);
    if (dot2 == std::string::npos) {
      m.key = m.name.substr(dot1 + 1);
    } else {
      m.group = m.name.substr(dot1 + 1, dot2 - dot1 - 1);
      m.key = m.name.substr(dot2 + 1);
    }
    const Json* leaf = find_leaf(baseline, m);
    if (!leaf) {
      std::fprintf(stderr,
                   "error: gated path '%s' is not a number in the "
                   "baseline\n",
                   m.name.c_str());
      return false;
    }
    m.baseline = leaf->number * scale;
    metrics->push_back(std::move(m));
  }
  return true;
}

/// Replaces each numeric `_ms` leaf of `merged` by its minimum over `runs`
/// (the same object in every run, run 1's included) when every run has
/// that leaf as a number, recursing into objects that every run has.
void merge_min_ms(Json& merged, const std::vector<const Json*>& runs) {
  for (auto& [key, value] : merged.object) {
    std::vector<const Json*> children;
    for (const Json* run : runs) {
      const Json* child = run->get(key);
      if (!child || child->kind != value.kind) break;
      children.push_back(child);
    }
    if (children.size() != runs.size()) continue;
    if (value.is_object()) {
      merge_min_ms(value, children);
    } else if (value.is_number() && key.size() > 3 &&
               key.compare(key.size() - 3, 3, "_ms") == 0) {
      for (const Json* child : children)
        value.number = std::min(value.number, child->number);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  std::vector<const char*> current_paths;
  double tolerance = 0.25;
  double stale_ratio = 0.65;
  double tail_slack_ms = 5.0;
  double scale = 1.0;
  bool update = false;

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
    if (std::strcmp(arg, "--tolerance") == 0) {
      if (!value(&v) || !parse_positive_double(arg, v, &tolerance))
        return kExitUsage;
    } else if (std::strcmp(arg, "--stale-ratio") == 0) {
      if (!value(&v) || !parse_positive_double(arg, v, &stale_ratio))
        return kExitUsage;
    } else if (std::strcmp(arg, "--tail-slack-ms") == 0) {
      if (!value(&v) || !parse_positive_double(arg, v, &tail_slack_ms))
        return kExitUsage;
    } else if (std::strcmp(arg, "--scale-baseline") == 0) {
      if (!value(&v) || !parse_positive_double(arg, v, &scale))
        return kExitUsage;
    } else if (std::strcmp(arg, "--update") == 0) {
      update = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      print_usage(stdout, argv[0]);
      return kExitPass;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg);
      print_usage(stderr, argv[0]);
      return kExitUsage;
    } else if (!baseline_path) {
      baseline_path = arg;
    } else {
      current_paths.push_back(arg);
    }
  }
  if (!baseline_path || current_paths.empty()) {
    std::fprintf(stderr,
                 "error: BASELINE and at least one CURRENT are required\n");
    print_usage(stderr, argv[0]);
    return kExitUsage;
  }

  std::vector<Json> currents;
  for (const char* path : current_paths) {
    std::optional<Json> run = load_json(path);
    if (!run) return kExitUsage;
    currents.push_back(std::move(*run));
  }

  // Min calibration across runs (0 = absent somewhere -> no normalizing).
  double cur_calib = 0.0;
  for (const Json& run : currents) {
    const double c = run.get_number("cpu_calib_ms", 0.0);
    if (c <= 0) {
      cur_calib = 0.0;
      break;
    }
    if (cur_calib == 0.0 || c < cur_calib) cur_calib = c;
  }

  if (update) {
    // Merged baseline: the first run with every gated metric, and every
    // `_ms` leaf all runs carry, replaced by the min across runs.
    Json merged = currents[0];
    std::vector<const Json*> runs;
    for (const Json& run : currents) runs.push_back(&run);
    merge_min_ms(merged, runs);
    std::vector<Metric> metrics;
    if (!collect(merged, 1.0, &metrics)) return kExitUsage;
    for (Metric& m : metrics) {
      bool any = false;
      for (const Json& run : currents) {
        const Json* leaf = find_leaf(run, m);
        if (leaf && (!any || leaf->number < m.current)) {
          m.current = leaf->number;
          any = true;
        }
      }
      if (!any) continue;
      Json* node = &merged.object[m.section];
      if (!m.group.empty()) node = &node->object[m.group];
      node->object[m.key] = Json::make_number(m.current);
    }
    std::ofstream out(baseline_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", baseline_path);
      return kExitUsage;
    }
    out << write_json(merged) << "\n";
    std::fprintf(stderr, "bench_gate: wrote merged baseline (%zu runs) to %s\n",
                 currents.size(), baseline_path);
    return kExitPass;
  }

  const std::optional<Json> baseline = load_json(baseline_path);
  if (!baseline) return kExitUsage;

  const double base_calib = baseline->get_number("cpu_calib_ms", 0.0);
  if (base_calib > 0 && cur_calib > 0) {
    scale *= cur_calib / base_calib;
    std::fprintf(stderr,
                 "cpu calibration: baseline %.3f ms, current %.3f ms "
                 "(baseline scaled %.2fx)\n",
                 base_calib, cur_calib, cur_calib / base_calib);
  }

  std::vector<Metric> metrics;
  if (!collect(*baseline, scale, &metrics)) return kExitUsage;
  if (metrics.empty()) {
    std::fprintf(stderr, "error: %s has no gated metrics\n", baseline_path);
    return kExitUsage;
  }
  for (Metric& m : metrics) {
    for (const Json& run : currents) {
      const Json* leaf = find_leaf(run, m);
      if (leaf && (!m.present || leaf->number < m.current)) {
        m.current = leaf->number;
        m.present = true;
      }
    }
  }

  std::fprintf(stderr, "%-36s %12s %12s %8s  %s\n", "metric", "base(ms)",
               "cur(ms)", "ratio", "verdict");
  pase::i64 failures = 0;
  for (const Metric& m : metrics) {
    if (!m.present) {
      std::fprintf(stderr, "%-36s %12.3f %12s %8s  MISSING\n", m.name.c_str(),
                   m.baseline, "-", "-");
      ++failures;
      continue;
    }
    const double ratio = m.baseline > 0 ? m.current / m.baseline : 0.0;
    const bool tail = m.name.find("p99") != std::string::npos;
    const char* verdict = "ok";
    if (ratio > 1.0 + tolerance &&
        (!tail || m.current > m.baseline + tail_slack_ms)) {
      verdict = "REGRESSION";
      ++failures;
    } else if (!tail && ratio < stale_ratio) {
      verdict = "STALE (refresh baseline)";
      ++failures;
    }
    std::fprintf(stderr, "%-36s %12.3f %12.3f %8.2f  %s\n", m.name.c_str(),
                 m.baseline, m.current, ratio, verdict);
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_gate: FAIL (%lld of %zu metrics out of band; "
                 "tolerance=%.2f stale-ratio=%.2f, min over %zu runs)\n",
                 static_cast<long long>(failures), metrics.size(), tolerance,
                 stale_ratio, currents.size());
    return kExitFail;
  }
  std::fprintf(stderr,
               "bench_gate: PASS (%zu metrics within [%.2fx, %.2fx], "
               "min over %zu runs)\n",
               metrics.size(), stale_ratio, 1.0 + tolerance, currents.size());
  return kExitPass;
}
