// pase_loadgen — load generator and robustness probe for pase_serve:
// drives a mixed query stream over several connections, retries shed
// responses with seeded backoff + jitter, and reports the full response
// taxonomy with latency percentiles, cache hit rate and a cross-request
// determinism check (every repeat of a query must return a byte-identical
// strategy, whether served cold, from cache, or after a poison recovery).
//
//   pase_loadgen --socket PATH [--requests N] [--connections N]
//                [--zoo LIST] [--devices LIST] [--deadline-ms D]
//                [--retries N] [--backoff-ms D] [--seed S]
//                [--json FILE] [--log-out FILE] [--shutdown]
//
// The request mix is deterministic: request k queries zoo[k % |zoo|] at
// devices[k % |devices|], so a rerun with the same flags produces the same
// stream (and, against an uninjected server, the same responses).
//
// --log-out FILE arms the event-log cross-check: FILE is the path the
// daemon is writing its --log-out event log to (flushed per line, so it is
// readable while the daemon runs). After the burst, every client-observed
// response — including retried sheds — is joined against the log by the
// server-assigned "seq" (and its "req<k>" id): the logged code must match
// the observed code, the logged op/id must match what was sent, the
// logged machine signature must match the machine the request named
// (every request sends "machine":"1080ti" explicitly, so the log must
// show "1080Ti/p<devices>"), the logged total_ms must fit inside the
// client-measured latency, and no log line may be missing or duplicated.
// This catches dropped or doubled event lines that per-code totals alone
// would miss.
//
// Exit codes: 0 all requests classified and determinism held, 1 runtime
// error (connect failure, crash-like disconnect, determinism or event-log
// cross-check violation), 2 usage error.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/rolling.h"
#include "serve/json.h"
#include "util/hash.h"
#include "util/types.h"

using namespace pase;
using namespace pase::serve;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s --socket PATH [--requests N] [--connections N]\n"
      "          [--zoo LIST] [--devices LIST] [--deadline-ms D]\n"
      "          [--retries N] [--backoff-ms D] [--seed S]\n"
      "          [--json FILE] [--log-out FILE] [--shutdown]\n"
      "\n"
      "Sends N solve queries (default 200) over C connections (default 4)\n"
      "mixing the comma-separated --zoo models (default mlp,alexnet) and\n"
      "--devices sizes (default 4,8). Shed responses are retried up to\n"
      "--retries times with --backoff-ms exponential backoff + seeded\n"
      "jitter. Reports per-code counts, qps, latency p50/p99, cache hit\n"
      "rate and a strategy-determinism check; --json writes the report as\n"
      "JSON; --log-out FILE cross-checks every observed response against\n"
      "the daemon's event log at FILE (join by seq/id; catches dropped or\n"
      "duplicated log lines); --shutdown stops the server afterwards.\n",
      argv0);
}

bool parse_i64_flag(const char* flag, const char* v, i64 min, i64* out) {
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (v[0] == '\0' || *end != '\0' || parsed < min) {
    std::fprintf(stderr, "error: invalid value '%s' for %s\n", v, flag);
    return false;
  }
  *out = parsed;
  return true;
}

/// Blocking Unix-socket client speaking one line per message.
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect(const std::string& path, std::string* error) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      *error = "socket path too long";
      return false;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      *error = "connect " + path + ": " + std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }

  /// Sends `line` (newline appended) and reads one response line.
  bool round_trip(const std::string& line, std::string* response,
                  std::string* error) {
    std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        *error = std::string("send: ") + std::strerror(errno);
        return false;
      }
      off += static_cast<size_t>(n);
    }
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        *error = n == 0 ? "server closed the connection"
                        : std::string("read: ") + std::strerror(errno);
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Deterministic backoff jitter in [0, 1) for (seed, request, attempt).
double jitter(u64 seed, u64 request, u64 attempt) {
  const u64 h = hash_combine(hash_combine(seed, request), attempt ^ 0x10adull);
  return static_cast<double>(h >> 11) * 0x1p-53;
}

struct Shared {
  std::mutex mu;
  std::map<std::string, u64> code_counts;
  std::map<std::string, u64> cache_counts;
  std::vector<double> latencies_ms;
  /// query key -> first strategy text seen (determinism reference).
  std::map<std::string, std::string> strategies;
  u64 retries = 0;
  u64 shed_responses = 0;  ///< total sheds, retried or not
  u64 determinism_checks = 0;
  u64 determinism_violations = 0;
  std::vector<std::string> errors;
};

/// What one logical request observed, for the --log-out cross-check. Slot
/// k is written only by the worker that claimed request k (the vector is
/// pre-sized), so no lock is needed.
struct ClientRecord {
  /// Every (server seq, code) this request saw, retried sheds included.
  std::vector<std::pair<i64, std::string>> attempts;
  double latency_ms = -1.0;  ///< first send -> final classified response
  /// Signature the daemon must log for this request's machine
  /// ("1080Ti/p<devices>" — every request names "1080ti" explicitly).
  std::string machine;
};

/// Joins the daemon's event log against the client-observed responses.
/// Returns the number of mismatches (0 = every attempt matched exactly
/// one log line and vice versa); fills `checked` with attempts joined.
u64 cross_check_event_log(const std::string& path,
                          const std::vector<ClientRecord>& records,
                          u64* checked, std::vector<std::string>* problems) {
  u64 mismatches = 0;
  auto flag = [&](const std::string& what) {
    ++mismatches;
    if (problems->size() < 16) problems->push_back(what);
  };

  std::ifstream in(path);
  if (!in) {
    flag("cannot read event log '" + path + "'");
    return mismatches;
  }

  // One server record per seq; a duplicated line is itself a violation.
  struct ServerRecord {
    std::string op, id, code, machine;
    double total_ms = 0.0;
  };
  std::map<i64, ServerRecord> by_seq;
  std::string line;
  i64 lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto parsed = parse_json(line);
    if (!parsed || !parsed->is_object()) {
      flag("event log line " + std::to_string(lineno) + ": unparsable");
      continue;
    }
    const Json* seq = parsed->get("seq");
    if (!seq || !seq->is_number()) {
      flag("event log line " + std::to_string(lineno) + ": missing seq");
      continue;
    }
    ServerRecord rec;
    rec.op = parsed->get_string("op");
    rec.id = parsed->get_string("id");
    rec.code = parsed->get_string("code");
    rec.machine = parsed->get_string("machine");
    rec.total_ms = parsed->get_number("total_ms", 0.0);
    const i64 s = static_cast<i64>(seq->number);
    if (!by_seq.emplace(s, std::move(rec)).second)
      flag("event log seq " + std::to_string(s) + ": duplicated line");
  }

  // Every client-observed attempt must have exactly one matching line.
  for (size_t k = 0; k < records.size(); ++k) {
    const ClientRecord& rec = records[k];
    const std::string want_id = "req" + std::to_string(k);
    for (const auto& [seq, code] : rec.attempts) {
      ++*checked;
      const auto it = by_seq.find(seq);
      if (it == by_seq.end()) {
        flag(want_id + " seq " + std::to_string(seq) +
             ": no event-log line (dropped?)");
        continue;
      }
      const ServerRecord& srv = it->second;
      if (srv.op != "solve")
        flag(want_id + " seq " + std::to_string(seq) + ": logged op '" +
             srv.op + "' != solve");
      if (srv.id != want_id)
        flag(want_id + " seq " + std::to_string(seq) + ": logged id '" +
             srv.id + "'");
      if (srv.code != code)
        flag(want_id + " seq " + std::to_string(seq) + ": logged code '" +
             srv.code + "' != observed '" + code + "'");
      if (!rec.machine.empty() && srv.machine != rec.machine)
        flag(want_id + " seq " + std::to_string(seq) +
             ": logged machine '" + srv.machine + "' != requested '" +
             rec.machine + "'");
      // The server handled this attempt strictly inside the client's
      // first-send -> final-receive window (same steady clock family);
      // 1ms slack covers measurement granularity only.
      if (rec.latency_ms >= 0.0 && srv.total_ms > rec.latency_ms + 1.0)
        flag(want_id + " seq " + std::to_string(seq) + ": logged total " +
             std::to_string(srv.total_ms) + "ms exceeds client latency " +
             std::to_string(rec.latency_ms) + "ms");
    }
  }

  // And no solve line for our ids may be unaccounted for (doubled
  // responses, phantom requests).
  std::map<i64, u64> claimed;
  for (const auto& rec : records)
    for (const auto& [seq, code] : rec.attempts) ++claimed[seq];
  for (const auto& [seq, srv] : by_seq) {
    if (srv.op != "solve" || srv.id.rfind("req", 0) != 0) continue;
    const auto it = claimed.find(seq);
    if (it == claimed.end())
      flag("event log seq " + std::to_string(seq) + " (id " + srv.id +
           "): no client observed it");
    else if (it->second != 1)
      flag("event log seq " + std::to_string(seq) + " (id " + srv.id +
           "): observed " + std::to_string(it->second) + " times");
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  i64 num_requests = 200;
  i64 num_connections = 4;
  std::string zoo_list = "mlp,alexnet";
  std::string devices_list = "4,8";
  double deadline_ms = 0.0;
  i64 max_retries = 3;
  i64 backoff_ms = 50;
  i64 seed = 1;
  const char* json_path = nullptr;
  const char* log_path = nullptr;
  bool send_shutdown = false;

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
    if (std::strcmp(arg, "--socket") == 0) {
      if (!value(&v)) return kExitUsage;
      socket_path = v;
    } else if (std::strcmp(arg, "--requests") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 1, &num_requests))
        return kExitUsage;
    } else if (std::strcmp(arg, "--connections") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 1, &num_connections))
        return kExitUsage;
    } else if (std::strcmp(arg, "--zoo") == 0) {
      if (!value(&v)) return kExitUsage;
      zoo_list = v;
    } else if (std::strcmp(arg, "--devices") == 0) {
      if (!value(&v)) return kExitUsage;
      devices_list = v;
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      i64 d = 0;
      if (!value(&v) || !parse_i64_flag(arg, v, 0, &d)) return kExitUsage;
      deadline_ms = static_cast<double>(d);
    } else if (std::strcmp(arg, "--retries") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 0, &max_retries))
        return kExitUsage;
    } else if (std::strcmp(arg, "--backoff-ms") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 0, &backoff_ms))
        return kExitUsage;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!value(&v) || !parse_i64_flag(arg, v, 0, &seed)) return kExitUsage;
    } else if (std::strcmp(arg, "--json") == 0) {
      if (!value(&json_path)) return kExitUsage;
    } else if (std::strcmp(arg, "--log-out") == 0) {
      if (!value(&log_path)) return kExitUsage;
    } else if (std::strcmp(arg, "--shutdown") == 0) {
      send_shutdown = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      print_usage(stdout, argv[0]);
      return kExitOk;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg);
      print_usage(stderr, argv[0]);
      return kExitUsage;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "error: --socket PATH is required\n");
    print_usage(stderr, argv[0]);
    return kExitUsage;
  }
  const std::vector<std::string> zoos = split_list(zoo_list);
  std::vector<i64> devices;
  for (const std::string& d : split_list(devices_list)) {
    char* end = nullptr;
    const long long parsed = std::strtoll(d.c_str(), &end, 10);
    if (*end != '\0' || parsed < 1) {
      std::fprintf(stderr, "error: bad --devices entry '%s'\n", d.c_str());
      return kExitUsage;
    }
    devices.push_back(parsed);
  }
  if (zoos.empty() || devices.empty()) {
    std::fprintf(stderr, "error: --zoo and --devices must be non-empty\n");
    return kExitUsage;
  }

  Shared shared;
  std::vector<ClientRecord> records(static_cast<size_t>(num_requests));
  std::atomic<i64> next_request{0};
  const auto t0 = std::chrono::steady_clock::now();

  auto worker = [&]() {
    Connection conn;
    std::string error;
    if (!conn.connect(socket_path, &error)) {
      std::lock_guard<std::mutex> lk(shared.mu);
      shared.errors.push_back(error);
      return;
    }
    for (;;) {
      const i64 k = next_request.fetch_add(1, std::memory_order_relaxed);
      if (k >= num_requests) return;
      const std::string& zoo = zoos[static_cast<size_t>(k) % zoos.size()];
      const i64 p = devices[static_cast<size_t>(k) % devices.size()];

      Json req = Json::make_object();
      req.object["op"] = Json::make_string("solve");
      req.object["id"] = Json::make_string("req" + std::to_string(k));
      req.object["zoo"] = Json::make_string(zoo);
      req.object["devices"] = Json::make_number(static_cast<double>(p));
      // Name the machine explicitly so the event-log cross-check can pin
      // the daemon's logged machine signature to what was asked for.
      req.object["machine"] = Json::make_string("1080ti");
      records[static_cast<size_t>(k)].machine =
          "1080Ti/p" + std::to_string(p);
      if (deadline_ms > 0.0)
        req.object["deadline_ms"] = Json::make_number(deadline_ms);
      const std::string line = write_json(req);
      const std::string query_key = zoo + "@" + std::to_string(p);

      const auto sent = std::chrono::steady_clock::now();
      std::string code;
      for (i64 attempt = 0;; ++attempt) {
        std::string response;
        if (!conn.round_trip(line, &response, &error)) {
          std::lock_guard<std::mutex> lk(shared.mu);
          shared.errors.push_back("request " + std::to_string(k) + ": " +
                                  error);
          return;
        }
        const auto parsed = parse_json(response);
        if (!parsed || !parsed->is_object()) {
          std::lock_guard<std::mutex> lk(shared.mu);
          shared.errors.push_back("request " + std::to_string(k) +
                                  ": unparsable response");
          return;
        }
        code = parsed->get_string("code");
        const std::string cache = parsed->get_string("cache");
        const std::string strategy = parsed->get_string("strategy");
        {
          // Slot k belongs to this worker alone.
          ClientRecord& rec = records[static_cast<size_t>(k)];
          const Json* seq = parsed->get("seq");
          rec.attempts.emplace_back(
              seq && seq->is_number() ? static_cast<i64>(seq->number) : -1,
              code);
        }

        std::unique_lock<std::mutex> lk(shared.mu);
        if (code == "shed") {
          ++shared.shed_responses;
          if (attempt < max_retries) {
            ++shared.retries;
            lk.unlock();
            const double sleep_ms =
                static_cast<double>(backoff_ms) *
                static_cast<double>(i64{1} << std::min<i64>(attempt, 6)) *
                (0.5 + jitter(static_cast<u64>(seed), static_cast<u64>(k),
                              static_cast<u64>(attempt)));
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(sleep_ms));
            continue;
          }
        }
        ++shared.code_counts[code];
        if (!cache.empty()) ++shared.cache_counts[cache];
        const double latency_ms = std::chrono::duration<double, std::milli>(
                                      std::chrono::steady_clock::now() - sent)
                                      .count();
        records[static_cast<size_t>(k)].latency_ms = latency_ms;
        shared.latencies_ms.push_back(latency_ms);
        if (!strategy.empty()) {
          const auto it = shared.strategies.find(query_key);
          if (it == shared.strategies.end()) {
            shared.strategies[query_key] = strategy;
          } else {
            ++shared.determinism_checks;
            if (it->second != strategy) ++shared.determinism_violations;
          }
        }
        break;
      }
    }
  };

  std::vector<std::thread> threads;
  for (i64 c = 0; c < num_connections; ++c) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Final server-side numbers (and optional shutdown) on a fresh
  // connection.
  double server_watchdog_kills = -1.0;
  double server_poison_detected = -1.0;
  {
    Connection conn;
    std::string error, response;
    if (conn.connect(socket_path, &error)) {
      if (conn.round_trip("{\"op\":\"metrics\"}", &response, &error)) {
        if (const auto parsed = parse_json(response)) {
          if (const Json* metrics = parsed->get("metrics")) {
            if (const Json* counters = metrics->get("counters")) {
              server_watchdog_kills =
                  counters->get_number("serve.watchdog.kills", 0.0);
              server_poison_detected =
                  counters->get_number("serve.cache.poison_detected", 0.0);
            }
          }
        }
      }
      if (send_shutdown)
        conn.round_trip("{\"op\":\"shutdown\"}", &response, &error);
    } else {
      std::lock_guard<std::mutex> lk(shared.mu);
      shared.errors.push_back("metrics: " + error);
    }
  }

  // Event-log cross-check (after the final metrics/shutdown round trip, so
  // every line the daemon will write for our requests is flushed).
  u64 log_checked = 0;
  u64 log_mismatches = 0;
  std::vector<std::string> log_problems;
  if (log_path != nullptr)
    log_mismatches =
        cross_check_event_log(log_path, records, &log_checked, &log_problems);

  u64 classified = 0;
  for (const auto& kv : shared.code_counts) classified += kv.second;
  std::sort(shared.latencies_ms.begin(), shared.latencies_ms.end());
  auto percentile = [&](double q) {
    return nearest_rank(shared.latencies_ms, q);
  };
  const double hits =
      static_cast<double>(shared.cache_counts.count("hit")
                              ? shared.cache_counts.at("hit")
                              : 0);
  const double misses =
      static_cast<double>(shared.cache_counts.count("miss")
                              ? shared.cache_counts.at("miss")
                              : 0);
  const double hit_rate =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;

  std::printf("pase_loadgen: %lld requests over %lld connections in %.2fs "
              "(%.1f qps)\n",
              static_cast<long long>(num_requests),
              static_cast<long long>(num_connections), elapsed_s,
              static_cast<double>(num_requests) / elapsed_s);
  std::printf("  responses:");
  for (const char* c : {"ok", "degraded", "shed", "infeasible", "malformed",
                        "error"}) {
    const auto it = shared.code_counts.find(c);
    std::printf(" %s=%llu", c,
                static_cast<unsigned long long>(
                    it == shared.code_counts.end() ? 0 : it->second));
  }
  std::printf("\n");
  std::printf("  latency ms: p50=%.2f p99=%.2f\n", percentile(0.5),
              percentile(0.99));
  std::printf("  cache: hits=%.0f misses=%.0f hit-rate=%.2f\n", hits, misses,
              hit_rate);
  std::printf("  sheds: %llu responses, %llu retried\n",
              static_cast<unsigned long long>(shared.shed_responses),
              static_cast<unsigned long long>(shared.retries));
  std::printf("  determinism: %llu repeats checked, %llu violations\n",
              static_cast<unsigned long long>(shared.determinism_checks),
              static_cast<unsigned long long>(shared.determinism_violations));
  if (server_watchdog_kills >= 0)
    std::printf("  server: watchdog_kills=%.0f poison_detected=%.0f\n",
                server_watchdog_kills, server_poison_detected);
  if (log_path != nullptr) {
    std::printf("  event log: %llu attempts joined, %llu mismatches\n",
                static_cast<unsigned long long>(log_checked),
                static_cast<unsigned long long>(log_mismatches));
    for (const std::string& p : log_problems)
      std::printf("  event-log mismatch: %s\n", p.c_str());
  }
  for (const std::string& e : shared.errors)
    std::printf("  error: %s\n", e.c_str());

  if (json_path) {
    Json report = Json::make_object();
    report.object["requests"] =
        Json::make_number(static_cast<double>(num_requests));
    report.object["classified"] =
        Json::make_number(static_cast<double>(classified));
    report.object["elapsed_s"] = Json::make_number(elapsed_s);
    report.object["qps"] =
        Json::make_number(static_cast<double>(num_requests) / elapsed_s);
    Json codes = Json::make_object();
    for (const auto& kv : shared.code_counts)
      codes.object[kv.first] =
          Json::make_number(static_cast<double>(kv.second));
    report.object["responses"] = std::move(codes);
    report.object["p50_ms"] = Json::make_number(percentile(0.5));
    report.object["p99_ms"] = Json::make_number(percentile(0.99));
    report.object["cache_hit_rate"] = Json::make_number(hit_rate);
    report.object["shed_responses"] =
        Json::make_number(static_cast<double>(shared.shed_responses));
    report.object["retries"] =
        Json::make_number(static_cast<double>(shared.retries));
    report.object["determinism_checks"] =
        Json::make_number(static_cast<double>(shared.determinism_checks));
    report.object["determinism_violations"] =
        Json::make_number(static_cast<double>(shared.determinism_violations));
    if (server_watchdog_kills >= 0) {
      report.object["watchdog_kills"] =
          Json::make_number(server_watchdog_kills);
      report.object["poison_detected"] =
          Json::make_number(server_poison_detected);
    }
    if (log_path != nullptr) {
      report.object["log_attempts_checked"] =
          Json::make_number(static_cast<double>(log_checked));
      report.object["log_mismatches"] =
          Json::make_number(static_cast<double>(log_mismatches));
    }
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path);
      return kExitRuntime;
    }
    out << write_json(report) << "\n";
  }

  if (!shared.errors.empty() || shared.determinism_violations > 0 ||
      classified != static_cast<u64>(num_requests) || log_mismatches > 0)
    return kExitRuntime;
  return kExitOk;
}
