#include "serve/protocol.h"

#include <cmath>

#include "config/config_enum.h"
#include "hetero/machine_file.h"
#include "pipeline/pipeline.h"
#include "serve/json.h"

namespace pase::serve {

namespace {

/// Range-checked integral field: absent -> fallback; present but not an
/// integer in [min, max] -> error.
bool read_i64(const Json& obj, const std::string& key, i64 min, i64 max,
              i64 fallback, i64* out, std::string* error) {
  const Json* v = obj.get(key);
  if (!v) {
    *out = fallback;
    return true;
  }
  if (!v->is_number() || v->number != std::floor(v->number) ||
      v->number < static_cast<double>(min) ||
      v->number > static_cast<double>(max)) {
    *error = "field '" + key + "' must be an integer in [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = static_cast<i64>(v->number);
  return true;
}

bool read_double(const Json& obj, const std::string& key, double min,
                 double max, double fallback, double* out,
                 std::string* error) {
  const Json* v = obj.get(key);
  if (!v) {
    *out = fallback;
    return true;
  }
  if (!v->is_number() || v->number < min || v->number > max) {
    *error = "field '" + key + "' must be a number in [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = v->number;
  return true;
}

}  // namespace

RequestParseResult parse_request(const std::string& line) {
  RequestParseResult result;
  std::string json_error;
  const auto parsed = parse_json(line, &json_error);
  if (!parsed) {
    result.error = "bad JSON (" + json_error + ")";
    return result;
  }
  if (!parsed->is_object()) {
    result.error = "request must be a JSON object";
    return result;
  }
  const Json& obj = *parsed;

  const std::string op = obj.get_string("op");
  ServeRequest& req = result.request;
  if (op == "solve") {
    req.op = ServeRequest::Op::kSolve;
  } else if (op == "ping") {
    req.op = ServeRequest::Op::kPing;
  } else if (op == "metrics") {
    req.op = ServeRequest::Op::kMetrics;
  } else if (op == "shutdown") {
    req.op = ServeRequest::Op::kShutdown;
  } else {
    result.error = op.empty() ? "missing 'op' field"
                              : "unknown op '" + op + "'";
    return result;
  }
  req.id = obj.get_string("id");
  if (req.op != ServeRequest::Op::kSolve) {
    result.ok = true;
    return result;
  }

  req.zoo = obj.get_string("zoo");
  req.model_text = obj.get_string("model");
  if (req.zoo.empty() == req.model_text.empty()) {
    result.error = "a solve needs exactly one of 'zoo' or 'model'";
    return result;
  }
  req.machine = obj.get_string("machine", "1080ti");
  i64 devices_fallback = 8;
  MachineSpec spec_machine;
  if (const Json* spec = obj.get("machine_spec")) {
    if (obj.get("machine")) {
      result.error =
          "a solve takes at most one of 'machine' or 'machine_spec'";
      return result;
    }
    if (!spec->is_object()) {
      result.error = "field 'machine_spec' must be an object";
      return result;
    }
    // Canonicalize before validating so byte-equal specs share one result-
    // cache key regardless of the client's key order.
    req.machine_spec_json = write_json(*spec);
    std::string spec_error;
    if (!parse_machine_spec(req.machine_spec_json, &spec_machine,
                            &spec_error)) {
      result.error = spec_error;
      return result;
    }
    devices_fallback = spec_machine.num_devices;
  }
  req.comm_model = obj.get_string("comm_model", "simple");
  if (const Json* sd = obj.get("split_dims")) {
    if (!sd->is_string()) {
      result.error = "field 'split_dims' must be a string";
      return result;
    }
    const auto dims = parse_split_dims(sd->string);
    if (!dims) {
      result.error =
          "field 'split_dims' must be a comma-separated subset of batch, "
          "param, spatial, channel (or 'all'/'none')";
      return result;
    }
    // Canonicalize so equivalent spellings share one result-cache entry.
    req.split_dims = dims->to_string();
  }
  std::string err;
  if (!read_i64(obj, "devices", 1, 1 << 20, devices_fallback, &req.devices,
                &err) ||
      !read_i64(obj, "beam_width", 1, 1 << 20, 256, &req.beam_width, &err) ||
      // The pipeline boundary DP coarsens to kPipelineCuts candidate cuts,
      // so larger explicit stage counts can never be realized.
      !read_i64(obj, "pipeline_stages", 0, kPipelineCuts, 1,
                &req.pipeline_stages, &err) ||
      !read_i64(obj, "microbatches", 1, 1 << 20, 8, &req.microbatches,
                &err) ||
      !read_double(obj, "memory_gb", 0.0, 1e9, 0.0, &req.memory_gb, &err) ||
      !read_double(obj, "deadline_ms", 0.0, 1e9, 0.0, &req.deadline_ms,
                   &err)) {
    result.error = err;
    return result;
  }
  if (req.pipeline_stages >= 2 && req.devices % req.pipeline_stages != 0) {
    result.error = "field 'pipeline_stages' (" +
                   std::to_string(req.pipeline_stages) +
                   ") must divide 'devices' (" + std::to_string(req.devices) +
                   ")";
    return result;
  }
  if (!req.machine_spec_json.empty() &&
      req.devices != spec_machine.num_devices) {
    result.error = "field 'devices' (" + std::to_string(req.devices) +
                   ") does not match the machine_spec device count (" +
                   std::to_string(spec_machine.num_devices) + ")";
    return result;
  }
  result.ok = true;
  return result;
}

const char* response_code_name(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk: return "ok";
    case ResponseCode::kDegraded: return "degraded";
    case ResponseCode::kShed: return "shed";
    case ResponseCode::kMalformed: return "malformed";
    case ResponseCode::kInfeasible: return "infeasible";
    case ResponseCode::kError: return "error";
  }
  return "error";
}

std::string ServeResponse::to_line() const {
  Json obj = Json::make_object();
  obj.object["code"] = Json::make_string(response_code_name(code));
  if (!id.empty()) obj.object["id"] = Json::make_string(id);
  if (!reason.empty()) obj.object["reason"] = Json::make_string(reason);
  if (!strategy.empty()) obj.object["strategy"] = Json::make_string(strategy);
  if (!cache.empty()) obj.object["cache"] = Json::make_string(cache);
  if (!strategy.empty()) obj.object["cost"] = Json::make_number(cost);
  if (elapsed_ms >= 0.0) obj.object["elapsed_ms"] = Json::make_number(elapsed_ms);
  if (seq >= 0) obj.object["seq"] = Json::make_number(static_cast<double>(seq));
  if (!metrics_json.empty()) {
    // The snapshot comes from our own byte-stable emitter, so it parses;
    // embed it as a value rather than an escaped string.
    if (auto parsed = parse_json(metrics_json))
      obj.object["metrics"] = std::move(*parsed);
  }
  if (!slo_json.empty()) {
    if (auto parsed = parse_json(slo_json))
      obj.object["slo"] = std::move(*parsed);
  }
  return write_json(obj);
}

}  // namespace pase::serve
