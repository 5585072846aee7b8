#include "sql/value.h"

#include <cstdio>
#include <cstring>

#include "common/hash.h"

namespace dssp::sql {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

int Value::Compare(const Value& other) const {
  const bool a_null = is_null();
  const bool b_null = other.is_null();
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;
  }
  if (is_numeric() && other.is_numeric()) {
    if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
      const int64_t a = AsInt64();
      const int64_t b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsDouble();
    const double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  DSSP_CHECK(type() == ValueType::kString &&
             other.type() == ValueType::kString);
  const int c = AsString().compare(other.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

std::string Value::ToSqlLiteral() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", AsDouble());
      std::string s(buf);
      // Ensure the literal re-parses as a double, not an integer.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case ValueType::kString: {
      std::string out = "'";
      for (char c : AsString()) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
  }
  DSSP_UNREACHABLE("bad value type");
}

std::string Value::EncodeForKey() const {
  std::string out;
  out.push_back(static_cast<char>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64: {
      const int64_t v = AsInt64();
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case ValueType::kDouble: {
      const double v = AsDouble();
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case ValueType::kString: {
      const std::string& s = AsString();
      const uint64_t n = s.size();
      out.append(reinterpret_cast<const char*>(&n), sizeof(n));
      out += s;
      break;
    }
  }
  return out;
}

bool Value::DecodeFromKey(std::string_view data, size_t* pos, Value* out) {
  if (*pos >= data.size()) return false;
  const char tag = data[(*pos)++];
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      out->rep_.emplace<std::monostate>();
      return true;
    case ValueType::kInt64: {
      if (*pos + sizeof(int64_t) > data.size()) return false;
      int64_t v;
      std::memcpy(&v, data.data() + *pos, sizeof(v));
      *pos += sizeof(v);
      out->rep_.emplace<int64_t>(v);
      return true;
    }
    case ValueType::kDouble: {
      if (*pos + sizeof(double) > data.size()) return false;
      double v;
      std::memcpy(&v, data.data() + *pos, sizeof(v));
      *pos += sizeof(v);
      out->rep_.emplace<double>(v);
      return true;
    }
    case ValueType::kString: {
      if (*pos + sizeof(uint64_t) > data.size()) return false;
      uint64_t len;
      std::memcpy(&len, data.data() + *pos, sizeof(len));
      *pos += sizeof(len);
      if (len > data.size() - *pos) return false;  // No wrap on huge len.
      out->rep_.emplace<std::string>(data.data() + *pos, len);
      *pos += len;
      return true;
    }
    default:
      return false;
  }
}

uint64_t Value::Hash() const {
  // Hash int64 and double consistently with Compare's numeric equality
  // (e.g., Value(2) == Value(2.0) must hash equally).
  if (is_numeric()) {
    const double d = AsDouble();
    if (type() == ValueType::kInt64 ||
        (d == static_cast<double>(static_cast<int64_t>(d)) &&
         d >= -9.2e18 && d <= 9.2e18)) {
      const int64_t v = type() == ValueType::kInt64
                            ? AsInt64()
                            : static_cast<int64_t>(d);
      return Hash64(std::string_view(reinterpret_cast<const char*>(&v),
                                     sizeof(v)));
    }
    return Hash64(std::string_view(reinterpret_cast<const char*>(&d),
                                   sizeof(d)));
  }
  return Hash64(EncodeForKey());
}

}  // namespace dssp::sql
