#include "service/protocol.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"
#include "sweep/sweep.hpp"

namespace fmm::service {

namespace {

[[noreturn]] void usage(const std::string& message) {
  throw ProtocolError("usage_error: " + message);
}

Op op_from_name(const std::string& name) {
  if (name == "ping") return Op::kPing;
  if (name == "version") return Op::kVersion;
  if (name == "stats") return Op::kStats;
  if (name == "bound") return Op::kBound;
  if (name == "simulate") return Op::kSimulate;
  if (name == "liveness") return Op::kLiveness;
  if (name == "optimal") return Op::kOptimal;
  if (name == "cdag") return Op::kCdag;
  if (name == "metrics") return Op::kMetrics;
  if (name == "tail") return Op::kTail;
  if (name == "shutdown") return Op::kShutdown;
  usage("unknown op '" + name +
        "'; expected ping, version, stats, bound, simulate, liveness, "
        "optimal, cdag, metrics, tail or shutdown");
}

bool field_allowed(Op op, const std::string& field) {
  if (field == "id" || field == "op") {
    return true;
  }
  switch (op) {
    case Op::kPing:
    case Op::kVersion:
    case Op::kStats:
    case Op::kMetrics:
    case Op::kShutdown:
      return false;
    case Op::kTail:
      return field == "limit";
    case Op::kBound:
      return field == "n" || field == "m" || field == "p";
    case Op::kSimulate:
      return field == "algorithm" || field == "n" || field == "m" ||
             field == "schedule" || field == "policy" || field == "remat" ||
             field == "seed";
    case Op::kLiveness:
      return field == "algorithm" || field == "n" || field == "m";
    case Op::kOptimal:
      return field == "algorithm" || field == "n" || field == "m" ||
             field == "remat" || field == "seed";
    case Op::kCdag:
      return field == "algorithm" || field == "n";
  }
  return false;
}

std::int64_t integer_field(const JsonValue& value,
                           const char* field) {
  if (!value.is_number()) {
    usage(std::string(field) + " must be an integer");
  }
  std::int64_t i = 0;
  try {
    i = value.as_i64();
  } catch (const CheckError&) {
    usage(std::string(field) + " must be an integer");
  }
  if (value.as_double() != static_cast<double>(i)) {
    usage(std::string(field) + " must be an integer, got a fraction");
  }
  return i;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kVersion: return "version";
    case Op::kStats: return "stats";
    case Op::kBound: return "bound";
    case Op::kSimulate: return "simulate";
    case Op::kLiveness: return "liveness";
    case Op::kOptimal: return "optimal";
    case Op::kCdag: return "cdag";
    case Op::kMetrics: return "metrics";
    case Op::kTail: return "tail";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(const std::string& line) {
  JsonValue doc;
  try {
    doc = parse_json(line);
  } catch (const CheckError& e) {
    usage(std::string("request is not valid JSON (") + e.what() + ")");
  }
  if (!doc.is_object()) {
    usage("request must be a JSON object");
  }
  const JsonValue* op_value = doc.find("op");
  if (op_value == nullptr || !op_value->is_string()) {
    usage("request needs a string 'op' field");
  }

  Request request;
  request.op = op_from_name(op_value->as_string());
  for (const auto& [field, value] : doc.members()) {
    if (!field_allowed(request.op, field)) {
      usage("unknown field '" + field + "' for op '" +
            op_name(request.op) + "'");
    }
    if (field == "op") {
      continue;
    }
    if (field == "id") {
      request.id = integer_field(value, "id");
      request.has_id = true;
    } else if (field == "algorithm") {
      if (!value.is_string() || value.as_string().empty()) {
        usage("algorithm must be a non-empty string");
      }
      request.algorithm = value.as_string();
    } else if (field == "n") {
      const std::int64_t n = integer_field(value, "n");
      if (n < 1) {
        usage("n must be >= 1, got " + std::to_string(n));
      }
      request.n = static_cast<std::size_t>(n);
    } else if (field == "m") {
      request.m = integer_field(value, "m");
      if (request.m < 1) {
        usage("m (fast memory words) must be >= 1, got " +
              std::to_string(request.m));
      }
    } else if (field == "p") {
      request.p = integer_field(value, "p");
      if (request.p < 1) {
        usage("p must be >= 1, got " + std::to_string(request.p));
      }
    } else if (field == "schedule") {
      if (!value.is_string()) {
        usage("schedule must be a string");
      }
      request.schedule = value.as_string();
      try {
        sweep::schedule_policy_from_name(request.schedule);
      } catch (const CheckError& e) {
        usage(e.what());
      }
    } else if (field == "policy") {
      if (!value.is_string()) {
        usage("policy must be a string");
      }
      request.policy = value.as_string();
      try {
        sweep::replacement_policy_from_name(request.policy);
      } catch (const CheckError& e) {
        usage(e.what());
      }
    } else if (field == "remat") {
      if (!value.is_bool()) {
        usage("remat must be a boolean");
      }
      request.remat = value.as_bool();
    } else if (field == "seed") {
      if (!value.is_number()) {
        usage("seed must be an unsigned integer");
      }
      try {
        request.seed = value.as_u64();
      } catch (const CheckError&) {
        usage("seed must be an unsigned integer");
      }
    } else if (field == "limit") {
      request.limit = integer_field(value, "limit");
      if (request.limit < 0) {
        usage("limit must be >= 0, got " + std::to_string(request.limit));
      }
    }
  }

  // Per-op required fields and shape constraints.
  switch (request.op) {
    case Op::kBound:
      if (request.n == 0 || request.m == 0) {
        usage("bound needs n and m");
      }
      break;
    // n's divisibility constraint depends on the scheme's base dim,
    // which only the service knows after resolving the algorithm —
    // power-of-base validation happens there (still a usage_error).
    case Op::kSimulate:
      if (request.n == 0 || request.m == 0) {
        usage("simulate needs n and m");
      }
      break;
    case Op::kOptimal:
      if (request.n == 0 || request.m == 0) {
        usage("optimal needs n and m");
      }
      break;
    case Op::kLiveness:
      if (request.n == 0) {
        usage("liveness needs n");
      }
      if (request.m == 0) {
        request.m = 1;  // liveness ignores M; the task row still has one
      }
      break;
    case Op::kCdag:
      if (request.n == 0) {
        usage("cdag needs n");
      }
      break;
    case Op::kPing:
    case Op::kVersion:
    case Op::kStats:
    case Op::kMetrics:
    case Op::kTail:
    case Op::kShutdown:
      break;
  }
  return request;
}

std::string canonical_request(const Request& request) {
  std::ostringstream os;
  os << "{\"op\": \"" << op_name(request.op) << "\"";
  const auto emit_algorithm = [&] {
    os << ", \"algorithm\": \"";
    json_escape(os, request.algorithm);
    os << "\"";
  };
  switch (request.op) {
    case Op::kBound:
      os << ", \"n\": " << request.n << ", \"m\": " << request.m
         << ", \"p\": " << request.p;
      break;
    case Op::kSimulate:
      emit_algorithm();
      os << ", \"n\": " << request.n << ", \"m\": " << request.m
         << ", \"schedule\": \"" << request.schedule << "\""
         << ", \"policy\": \"" << request.policy << "\""
         << ", \"remat\": " << (request.remat ? "true" : "false")
         << ", \"seed\": " << request.seed;
      break;
    case Op::kLiveness:
      emit_algorithm();
      os << ", \"n\": " << request.n << ", \"m\": " << request.m;
      break;
    case Op::kOptimal:
      emit_algorithm();
      os << ", \"n\": " << request.n << ", \"m\": " << request.m
         << ", \"remat\": " << (request.remat ? "true" : "false")
         << ", \"seed\": " << request.seed;
      break;
    case Op::kCdag:
      emit_algorithm();
      os << ", \"n\": " << request.n;
      break;
    case Op::kPing:
    case Op::kVersion:
    case Op::kStats:
    case Op::kMetrics:
    case Op::kTail:
    case Op::kShutdown:
      break;
  }
  os << "}";
  return os.str();
}

bool op_is_cacheable(Op op) {
  switch (op) {
    case Op::kBound:
    case Op::kSimulate:
    case Op::kLiveness:
    case Op::kOptimal:
    case Op::kCdag:
      return true;
    case Op::kPing:
    case Op::kVersion:
    case Op::kStats:
    case Op::kMetrics:
    case Op::kTail:
    case Op::kShutdown:
      return false;
  }
  return false;
}

bool op_needs_cdag(Op op) {
  return op == Op::kSimulate || op == Op::kLiveness || op == Op::kOptimal ||
         op == Op::kCdag;
}

std::string ok_response(const Request& request, const std::string& result) {
  std::ostringstream os;
  os << "{\"id\": ";
  if (request.has_id) {
    os << request.id;
  } else {
    os << "null";
  }
  os << ", \"ok\": true, \"op\": \"" << op_name(request.op)
     << "\", \"result\": " << result << "}";
  return os.str();
}

std::string error_response(bool has_id, std::int64_t id,
                           const std::string& message) {
  std::ostringstream os;
  os << "{\"id\": ";
  if (has_id) {
    os << id;
  } else {
    os << "null";
  }
  os << ", \"ok\": false, \"error\": \"";
  json_escape(os, message);
  os << "\"}";
  return os.str();
}

}  // namespace fmm::service
