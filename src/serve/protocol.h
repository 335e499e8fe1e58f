// Line-delimited JSON protocol of the strategy-serving daemon.
//
// Every request is one JSON object on one line; every response is one JSON
// object on one line. Request ops:
//
//   {"op":"solve", "zoo":"alexnet", "devices":8, ...}    strategy query
//   {"op":"ping"}                                        liveness probe
//   {"op":"metrics"}                                     serve.* snapshot
//   {"op":"shutdown"}                                    graceful stop
//
// Solve fields (all optional except the model source):
//   "zoo": NAME        — a built-in benchmark graph (src/models), or
//   "model": TEXT      — an inline pase-model v1 description
//   "id": STRING       — client tag echoed back verbatim
//   "machine": 1080ti|2080ti|mixed|mixed_pod|multi_tier (default 1080ti)
//   "machine_spec": {...} — an inline heterogeneous machine description
//                        (the machine-spec JSON object of
//                        src/hetero/machine_file.h); exclusive with
//                        "machine". "devices" defaults to the spec's count
//                        and, when given, must match it.
//   "devices": N       — cluster size p (default 8)
//   "memory_gb": G     — per-device memory cap (0 = unlimited)
//   "deadline_ms": D   — per-request budget (0 = server default; values
//                        above the server's --max-deadline-ms are clamped)
//   "comm_model": simple|auto|ring|tree|hd|hier (default simple)
//   "beam_width": N    — degraded-fallback beam width (default 256)
//   "split_dims": LIST — per-layer split classes to search, comma-separated
//                        from {batch,param,spatial,channel} or "all"/"none"
//                        (default "batch,param", the paper's space;
//                        canonicalized so equivalent spellings share one
//                        result-cache entry)
//   "pipeline_stages": N — inter-stage pipeline dimension: 1 = off (the
//                        default, bit-identical to a plain solve), 0 =
//                        auto (search the stage count), N in
//                        [2, kPipelineCuts] = exactly N stages (must
//                        divide "devices" and be at most the layer count)
//   "microbatches": N  — micro-batches in flight for the pipeline
//                        fill/drain model (default 8)
//
// Response codes — the full failure taxonomy (DESIGN.md §10):
//   ok          solved to optimality within budget
//   degraded    deadline/guard tripped; a valid beam-search strategy is
//               still attached
//   shed        admission control refused the request (queue at capacity);
//               retry with backoff — never a silent drop
//   malformed   unparsable JSON, unknown op, or a model that failed
//               validation; "reason" explains
//   infeasible  no configuration satisfies the memory cap
//   error       internal failure (e.g. solve killed by the watchdog)
//
// Solve responses carry: "code", "id", "cost", "elapsed_ms", "cache"
// (hit|miss|poisoned), "strategy" (pase-strategy v1 text, ok/degraded
// only), and "reason" (non-ok codes). Every response also carries "seq",
// the server-assigned request sequence number — the join key between a
// response, its event-log line, and its spans in the merged trace.
// `metrics` responses additionally carry "metrics" (the registry snapshot)
// and "slo" (rolling p50/p95/p99 over the last --slo-window solves; see
// obs/rolling.h).
#pragma once

#include <string>

#include "util/types.h"

namespace pase::serve {

struct ServeRequest {
  enum class Op { kSolve, kPing, kMetrics, kShutdown };
  Op op = Op::kSolve;
  std::string id;          ///< echoed back; empty = omitted
  std::string zoo;         ///< zoo graph name (exclusive with model_text)
  std::string model_text;  ///< inline pase-model source
  std::string machine = "1080ti";
  /// Canonical (write_json) rendering of an inline "machine_spec" object;
  /// empty = named machine. Canonicalizing here makes byte-equal specs
  /// dedupe/cache together regardless of client key order or whitespace.
  std::string machine_spec_json;
  i64 devices = 8;
  double memory_gb = 0.0;
  double deadline_ms = 0.0;  ///< 0 = server default
  std::string comm_model = "simple";
  i64 beam_width = 256;
  /// Canonical (SplitDims::to_string) spelling of the searched split-dim
  /// classes; canonicalizing at parse time makes "spatial,batch,param" and
  /// "batch,param,spatial" share one result-cache entry.
  std::string split_dims = "batch,param";
  i64 pipeline_stages = 1;  ///< 1 = off, 0 = auto, N = exactly N stages
  i64 microbatches = 8;     ///< pipeline fill/drain model
};

struct RequestParseResult {
  bool ok = false;
  std::string error;  ///< human-readable reason when !ok
  ServeRequest request;
};

/// Parses one request line. Never throws; malformed input (bad JSON, wrong
/// types, out-of-range numbers, unknown op, both or neither model source
/// for a solve) comes back as !ok with a reason the caller wraps in a
/// `malformed` response.
RequestParseResult parse_request(const std::string& line);

enum class ResponseCode {
  kOk,
  kDegraded,
  kShed,
  kMalformed,
  kInfeasible,
  kError,
};

const char* response_code_name(ResponseCode code);

/// Response under construction; to_line() renders the canonical JSON line
/// (no trailing newline). Fields left at their defaults are omitted.
struct ServeResponse {
  ResponseCode code = ResponseCode::kOk;
  std::string id;
  std::string reason;
  std::string strategy;    ///< pase-strategy v1 text
  std::string cache;       ///< "hit" | "miss" | "poisoned"
  double cost = 0.0;
  double elapsed_ms = -1.0;  ///< < 0 = omitted
  i64 seq = -1;              ///< server request sequence number; < 0 = omitted
  std::string metrics_json;  ///< metrics op only: raw snapshot, not escaped
  std::string slo_json;      ///< metrics op only: rolling SLO quantiles

  std::string to_line() const;
};

}  // namespace pase::serve
