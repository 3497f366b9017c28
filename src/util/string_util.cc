#include "util/string_util.h"

#include <cctype>
#include <cstdio>
#include <cstdint>
#include <cstring>

namespace surf {

std::vector<std::string> SplitString(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string TrimString(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    size_t last = s.find_last_not_of('0');
    if (s[last] == '.') --last;
    s.erase(last + 1);
  }
  return s;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string DoubleToHex(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

bool DoubleFromHex(const std::string& s, double* out) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') return false;
  uint64_t bits = 0;
  for (size_t i = 2; i < s.size(); ++i) {
    const char c = s[i];
    uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    bits = (bits << 4) | nibble;
  }
  std::memcpy(out, &bits, sizeof(bits));
  return true;
}

}  // namespace surf
