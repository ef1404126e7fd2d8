#include "bilinear/scheme.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bilinear/catalog.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/math_util.hpp"

namespace fmm::bilinear {

namespace {

/// Exact |x| with the INT64_MIN edge rejected (cannot be negated).
std::int64_t checked_abs(std::int64_t x) {
  FMM_CHECK_MSG(x != INT64_MIN, "scheme: rational magnitude overflow");
  return x < 0 ? -x : x;
}

}  // namespace

Rational rat_make(std::int64_t num, std::int64_t den) {
  FMM_CHECK_MSG(den != 0, "scheme: rational with zero denominator");
  if (num == 0) {
    return Rational{0, 1};
  }
  if (den < 0) {
    FMM_CHECK_MSG(num != INT64_MIN, "scheme: rational magnitude overflow");
    num = -num;
    den = checked_abs(den);
  }
  const std::int64_t g = gcd_i64(checked_abs(num), den);
  return Rational{num / g, den / g};
}

Rational rat_add(const Rational& a, const Rational& b) {
  return rat_make(checked_add(checked_mul(a.num, b.den),
                              checked_mul(b.num, a.den)),
                  checked_mul(a.den, b.den));
}

Rational rat_mul(const Rational& a, const Rational& b) {
  return rat_make(checked_mul(a.num, b.num), checked_mul(a.den, b.den));
}

std::string rat_to_string(const Rational& r) {
  if (r.den == 1) {
    return std::to_string(r.num);
  }
  return std::to_string(r.num) + "/" + std::to_string(r.den);
}

bool Scheme::is_integer() const {
  for (const RatMat* mat : {&u, &v, &w}) {
    for (const Rational& r : mat->data) {
      if (!r.is_integer()) {
        return false;
      }
    }
  }
  return true;
}

namespace {

std::string equation_name(const Scheme& s, std::size_t i, std::size_t k,
                          std::size_t k2, std::size_t j, std::size_t i2,
                          std::size_t j2) {
  std::ostringstream oss;
  oss << "A[" << i << "," << k << "] B[" << k2 << "," << j << "] C[" << i2
      << "," << j2 << "]";
  (void)s;
  return oss.str();
}

}  // namespace

std::optional<std::string> first_brent_violation(const Scheme& s) {
  const std::size_t t = s.rank();
  for (std::size_t i = 0; i < s.n; ++i) {
    for (std::size_t k = 0; k < s.m; ++k) {
      for (std::size_t k2 = 0; k2 < s.m; ++k2) {
        for (std::size_t j = 0; j < s.p; ++j) {
          for (std::size_t i2 = 0; i2 < s.n; ++i2) {
            for (std::size_t j2 = 0; j2 < s.p; ++j2) {
              const std::size_t a_idx = i * s.m + k;
              const std::size_t b_idx = k2 * s.p + j;
              const std::size_t c_idx = i2 * s.p + j2;
              Rational sum{0, 1};
              for (std::size_t r = 0; r < t; ++r) {
                const Rational& ur = s.u.at(r, a_idx);
                if (ur.is_zero()) continue;
                const Rational& vr = s.v.at(r, b_idx);
                if (vr.is_zero()) continue;
                const Rational& wr = s.w.at(c_idx, r);
                if (wr.is_zero()) continue;
                sum = rat_add(sum, rat_mul(rat_mul(ur, vr), wr));
              }
              const std::int64_t expected =
                  (i == i2 && j == j2 && k == k2) ? 1 : 0;
              if (sum.num != expected || sum.den != 1) {
                std::ostringstream oss;
                oss << "Brent equation violated at "
                    << equation_name(s, i, k, k2, j, i2, j2) << ": got "
                    << rat_to_string(sum) << ", expected " << expected;
                return oss.str();
              }
            }
          }
        }
      }
    }
  }
  return std::nullopt;
}

namespace {

std::uint64_t mod_pow(std::uint64_t base, std::uint64_t exp,
                      std::uint64_t mod) {
  // 64-bit-safe because callers use primes < 2^32.
  std::uint64_t result = 1;
  base %= mod;
  while (exp > 0) {
    if (exp & 1) {
      result = result * base % mod;
    }
    base = base * base % mod;
    exp >>= 1;
  }
  return result;
}

/// num/den as an element of Z_p; false when den ≡ 0 (mod p).
bool rat_mod_p(const Rational& r, std::uint64_t p, std::uint64_t* out) {
  const std::uint64_t den =
      static_cast<std::uint64_t>(checked_abs(r.den)) % p;
  if (den == 0) {
    return false;
  }
  std::uint64_t num = static_cast<std::uint64_t>(checked_abs(r.num)) % p;
  if (r.num < 0) {
    num = (p - num) % p;
  }
  // Fermat inverse: den^(p-2) mod p.
  *out = num * mod_pow(den, p - 2, p) % p;
  return true;
}

}  // namespace

std::optional<std::string> brent_spot_check_mod_p(const Scheme& s,
                                                  std::uint64_t prime) {
  FMM_CHECK_MSG(prime > 2 && prime < (1ULL << 32),
                "scheme: spot-check prime must be in (2, 2^32)");
  // Pre-reduce every coefficient once; bail to "inconclusive" if any
  // denominator vanishes mod p (the exact pass still decides).
  const std::size_t t = s.rank();
  std::vector<std::uint64_t> u(t * s.n * s.m), v(t * s.m * s.p),
      w(s.n * s.p * t);
  for (std::size_t idx = 0; idx < s.u.data.size(); ++idx) {
    if (!rat_mod_p(s.u.data[idx], prime, &u[idx])) return std::nullopt;
  }
  for (std::size_t idx = 0; idx < s.v.data.size(); ++idx) {
    if (!rat_mod_p(s.v.data[idx], prime, &v[idx])) return std::nullopt;
  }
  for (std::size_t idx = 0; idx < s.w.data.size(); ++idx) {
    if (!rat_mod_p(s.w.data[idx], prime, &w[idx])) return std::nullopt;
  }
  const std::size_t nm = s.n * s.m;
  const std::size_t mp = s.m * s.p;
  for (std::size_t i = 0; i < s.n; ++i) {
    for (std::size_t k = 0; k < s.m; ++k) {
      for (std::size_t k2 = 0; k2 < s.m; ++k2) {
        for (std::size_t j = 0; j < s.p; ++j) {
          for (std::size_t i2 = 0; i2 < s.n; ++i2) {
            for (std::size_t j2 = 0; j2 < s.p; ++j2) {
              const std::size_t a_idx = i * s.m + k;
              const std::size_t b_idx = k2 * s.p + j;
              const std::size_t c_idx = i2 * s.p + j2;
              std::uint64_t sum = 0;
              for (std::size_t r = 0; r < t; ++r) {
                sum = (sum + u[r * nm + a_idx] * v[r * mp + b_idx] % prime *
                                 w[c_idx * t + r]) %
                      prime;
              }
              const std::uint64_t expected =
                  (i == i2 && j == j2 && k == k2) ? 1 : 0;
              if (sum != expected) {
                std::ostringstream oss;
                oss << "Brent equation violated (mod " << prime << ") at "
                    << equation_name(s, i, k, k2, j, i2, j2);
                return oss.str();
              }
            }
          }
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> verify_scheme(const Scheme& s) {
  if (s.name.empty()) {
    return "scheme has an empty name";
  }
  if (s.n == 0 || s.m == 0 || s.p == 0 || s.rank() == 0) {
    return "scheme dims and rank must be positive";
  }
  if (s.u.rows != s.rank() || s.u.cols != s.n * s.m ||
      s.v.rows != s.rank() || s.v.cols != s.m * s.p ||
      s.w.rows != s.n * s.p || s.w.cols != s.rank()) {
    return "coefficient matrix shapes do not match <n,m,p;rank>";
  }
  // Fast path first: one pass of int64 arithmetic catches corrupted
  // coefficients without touching rational arithmetic.
  if (auto violation = brent_spot_check_mod_p(s)) {
    return violation;
  }
  // The certificate: exact over the rationals.
  return first_brent_violation(s);
}

namespace {

void render_matrix(std::ostringstream& os, const char* key,
                   const RatMat& mat) {
  os << "  \"" << key << "\": [\n";
  for (std::size_t r = 0; r < mat.rows; ++r) {
    os << "    [";
    for (std::size_t c = 0; c < mat.cols; ++c) {
      const Rational& x = mat.at(r, c);
      os << (c == 0 ? "" : ", ");
      if (x.is_integer()) {
        os << x.num;
      } else {
        os << '"' << rat_to_string(x) << '"';
      }
    }
    os << (r + 1 == mat.rows ? "]\n" : "],\n");
  }
  os << "  ]";
}

}  // namespace

std::string scheme_to_json(const Scheme& s) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"" << kSchemeSchema << "\",\n";
  os << "  \"schema_version\": " << kSchemeSchemaVersion << ",\n";
  os << "  \"name\": \"" << s.name << "\",\n";
  os << "  \"n\": " << s.n << ",\n";
  os << "  \"m\": " << s.m << ",\n";
  os << "  \"p\": " << s.p << ",\n";
  os << "  \"rank\": " << s.rank() << ",\n";
  render_matrix(os, "u", s.u);
  os << ",\n";
  render_matrix(os, "v", s.v);
  os << ",\n";
  render_matrix(os, "w", s.w);
  os << "\n}\n";
  return os.str();
}

namespace {

Rational coefficient_from_json(const JsonValue& value) {
  if (value.is_number()) {
    return rat_make(value.as_i64(), 1);
  }
  FMM_CHECK_MSG(value.is_string(),
                "scheme: coefficient must be an integer or a \"num/den\" "
                "string");
  const std::string& text = value.as_string();
  const std::size_t slash = text.find('/');
  FMM_CHECK_MSG(slash != std::string::npos && slash > 0 &&
                    slash + 1 < text.size(),
                "scheme: malformed rational coefficient '" << text << "'");
  std::int64_t num = 0;
  std::int64_t den = 0;
  try {
    std::size_t used = 0;
    num = std::stoll(text.substr(0, slash), &used);
    FMM_CHECK(used == slash);
    den = std::stoll(text.substr(slash + 1), &used);
    FMM_CHECK(used == text.size() - slash - 1);
  } catch (const std::exception&) {
    FMM_CHECK_MSG(false,
                  "scheme: malformed rational coefficient '" << text << "'");
  }
  return rat_make(num, den);
}

RatMat matrix_from_json(const JsonValue& value,
                        std::size_t rows, std::size_t cols,
                        const char* key) {
  FMM_CHECK_MSG(value.is_array(),
                "scheme: \"" << key << "\" must be an array of rows");
  const auto& row_values = value.items();
  FMM_CHECK_MSG(row_values.size() == rows,
                "scheme: \"" << key << "\" must have " << rows
                             << " rows, got " << row_values.size());
  RatMat mat(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    FMM_CHECK_MSG(row_values[r].is_array(),
                  "scheme: \"" << key << "\" row " << r
                               << " must be an array");
    const auto& entries = row_values[r].items();
    FMM_CHECK_MSG(entries.size() == cols,
                  "scheme: \"" << key << "\" row " << r << " must have "
                               << cols << " entries, got "
                               << entries.size());
    for (std::size_t c = 0; c < cols; ++c) {
      mat.at(r, c) = coefficient_from_json(entries[c]);
    }
  }
  return mat;
}

std::size_t positive_size_field(const JsonValue& doc,
                                const char* key) {
  const std::int64_t value = doc.at(key).as_i64();
  FMM_CHECK_MSG(value > 0,
                "scheme: \"" << key << "\" must be positive, got " << value);
  return static_cast<std::size_t>(value);
}

}  // namespace

Scheme parse_scheme_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  FMM_CHECK_MSG(doc.is_object(), "scheme: top level must be an object");
  const JsonValue& schema = doc.at("schema");
  FMM_CHECK_MSG(schema.is_string() && schema.as_string() == kSchemeSchema,
                "scheme: \"schema\" must be \"" << kSchemeSchema << "\"");
  const std::int64_t version = doc.at("schema_version").as_i64();
  FMM_CHECK_MSG(version == kSchemeSchemaVersion,
                "scheme: unsupported schema_version " << version
                                                      << " (expected "
                                                      << kSchemeSchemaVersion
                                                      << ")");
  Scheme s;
  const JsonValue& name = doc.at("name");
  FMM_CHECK_MSG(name.is_string() && !name.as_string().empty(),
                "scheme: \"name\" must be a non-empty string");
  s.name = name.as_string();
  s.n = positive_size_field(doc, "n");
  s.m = positive_size_field(doc, "m");
  s.p = positive_size_field(doc, "p");
  const std::size_t rank = positive_size_field(doc, "rank");
  s.u = matrix_from_json(doc.at("u"), rank, s.n * s.m, "u");
  s.v = matrix_from_json(doc.at("v"), rank, s.m * s.p, "v");
  s.w = matrix_from_json(doc.at("w"), s.n * s.p, rank, "w");
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    FMM_CHECK_MSG(key == "schema" || key == "schema_version" ||
                      key == "name" || key == "n" || key == "m" ||
                      key == "p" || key == "rank" || key == "u" ||
                      key == "v" || key == "w" || key == "comment",
                  "scheme: unknown field \"" << key << "\"");
  }
  return s;
}

Scheme load_scheme_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FMM_CHECK_MSG(in.good(), "scheme: cannot open file '" << path << "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Scheme s;
  try {
    s = parse_scheme_json(buffer.str());
  } catch (const CheckError& e) {
    FMM_CHECK_MSG(false, "scheme file '" << path << "': " << e.what());
  }
  if (const auto violation = verify_scheme(s)) {
    FMM_CHECK_MSG(false,
                  "scheme file '" << path << "' refused: " << *violation);
  }
  return s;
}

std::string scheme_fingerprint(const Scheme& s) {
  return fingerprint64(scheme_to_json(s));
}

SchemeTraits traits_of(const Scheme& s) {
  SchemeTraits traits;
  traits.name = s.name;
  traits.n = s.n;
  traits.m = s.m;
  traits.p = s.p;
  traits.rank = s.rank();
  if (s.is_square() && s.n >= 2) {
    traits.base = s.n;
    traits.omega0 = std::log(static_cast<double>(traits.rank)) /
                    std::log(static_cast<double>(s.n));
  }
  traits.fingerprint = scheme_fingerprint(s);
  for (const RatMat* mat : {&s.u, &s.v}) {
    for (std::size_t r = 0; r < mat->rows; ++r) {
      std::size_t nnz = 0;
      for (std::size_t c = 0; c < mat->cols; ++c) {
        if (!mat->at(r, c).is_zero()) {
          ++nnz;
        }
      }
      traits.max_encoder_row_weight =
          std::max(traits.max_encoder_row_weight, nnz);
    }
  }
  for (std::size_t r = 0; r < s.w.rows; ++r) {
    std::size_t nnz = 0;
    for (std::size_t c = 0; c < s.w.cols; ++c) {
      if (!s.w.at(r, c).is_zero()) {
        ++nnz;
      }
    }
    traits.max_decoder_row_weight =
        std::max(traits.max_decoder_row_weight, nnz);
  }
  return traits;
}

Scheme scheme_from_algorithm(const BilinearAlgorithm& alg) {
  Scheme s;
  s.name = alg.name();
  s.n = alg.n();
  s.m = alg.m();
  s.p = alg.p();
  const auto convert = [](const IntMat& src) {
    RatMat dst(src.rows, src.cols);
    for (std::size_t r = 0; r < src.rows; ++r) {
      for (std::size_t c = 0; c < src.cols; ++c) {
        dst.at(r, c) = rat_make(src.at(r, c), 1);
      }
    }
    return dst;
  };
  s.u = convert(alg.u());
  s.v = convert(alg.v());
  s.w = convert(alg.w());
  return s;
}

BilinearAlgorithm to_algorithm(const Scheme& s) {
  FMM_CHECK_MSG(s.is_integer(),
                "scheme '" << s.name
                           << "' has non-integer coefficients; it "
                              "verifies but cannot be executed yet");
  const auto convert = [&](const RatMat& src) {
    IntMat dst(src.rows, src.cols);
    for (std::size_t r = 0; r < src.rows; ++r) {
      for (std::size_t c = 0; c < src.cols; ++c) {
        const std::int64_t value = src.at(r, c).num;
        FMM_CHECK_MSG(value >= INT32_MIN && value <= INT32_MAX,
                      "scheme '" << s.name << "': coefficient " << value
                                 << " exceeds the executable int range");
        dst.at(r, c) = static_cast<int>(value);
      }
    }
    return dst;
  };
  return BilinearAlgorithm(s.name, s.n, s.m, s.p, convert(s.u),
                           convert(s.v), convert(s.w));
}

// --- SchemeRegistry --------------------------------------------------

SchemeRegistry& SchemeRegistry::instance() {
  static SchemeRegistry registry;
  return registry;
}

bool SchemeRegistry::is_file_key(const std::string& key) {
  return key.rfind("file:", 0) == 0;
}

SchemeRegistry::SchemeRegistry() {
  factories_["strassen"] = [] { return strassen(); };
  factories_["winograd"] = [] { return winograd(); };
  factories_["strassen-dual"] = [] { return strassen_transposed(); };
  factories_["strassen-perm"] = [] { return strassen_permuted(); };
  factories_["winograd-dual"] = [] { return winograd_transposed(); };
  factories_["classic"] = [] { return classic(2, 2, 2); };
  factories_["strassen-squared"] = [] { return strassen_squared(); };
}

bool SchemeRegistry::has_catalog(const std::string& key) const {
  const std::scoped_lock lock(mutex_);
  if (factories_.count(key) > 0) {
    return true;
  }
  std::size_t n = 0, m = 0, p = 0;
  return std::sscanf(key.c_str(), "classic-%zux%zux%zu", &n, &m, &p) == 3 &&
         n > 0 && m > 0 && p > 0;
}

BilinearAlgorithm SchemeRegistry::resolve_locked(const std::string& key) {
  if (const auto it = algorithms_.find(key); it != algorithms_.end()) {
    return it->second;
  }
  BilinearAlgorithm alg = [&] {
    if (is_file_key(key)) {
      // Loaded schemes are Brent-verified before they become
      // executable; load_scheme_file refuses invalid files.
      return to_algorithm(load_scheme_file(key.substr(5)));
    }
    if (const auto it = factories_.find(key); it != factories_.end()) {
      return it->second();
    }
    std::size_t n = 0, m = 0, p = 0;
    if (std::sscanf(key.c_str(), "classic-%zux%zux%zu", &n, &m, &p) == 3 &&
        n > 0 && m > 0 && p > 0) {
      return classic(n, m, p);
    }
    std::ostringstream oss;
    oss << "unknown algorithm '" << key << "'; known: ";
    for (const auto& [name, factory] : factories_) {
      (void)factory;
      oss << name << ", ";
    }
    oss << "classic-<n>x<m>x<p>, file:<path>";
    throw CheckError(oss.str());
  }();
  algorithms_.emplace(key, alg);
  return alg;
}

BilinearAlgorithm SchemeRegistry::resolve(const std::string& key) {
  const std::scoped_lock lock(mutex_);
  return resolve_locked(key);
}

SchemeTraits SchemeRegistry::traits(const std::string& key) {
  const std::scoped_lock lock(mutex_);
  if (const auto it = traits_.find(key); it != traits_.end()) {
    return it->second;
  }
  const BilinearAlgorithm alg = resolve_locked(key);
  const SchemeTraits traits = traits_of(scheme_from_algorithm(alg));
  traits_.emplace(key, traits);
  return traits;
}

std::vector<std::string> SchemeRegistry::catalog_keys() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    (void)factory;
    keys.push_back(name);
  }
  return keys;
}

void SchemeRegistry::register_factory(
    const std::string& key, std::function<BilinearAlgorithm()> factory) {
  const std::scoped_lock lock(mutex_);
  factories_[key] = std::move(factory);
  algorithms_.erase(key);
  traits_.erase(key);
}

}  // namespace fmm::bilinear
