#ifndef SURF_UTIL_STRING_UTIL_H_
#define SURF_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace surf {

/// Splits `s` on `delim` (keeps empty fields).
std::vector<std::string> SplitString(const std::string& s, char delim);

/// Strips leading/trailing ASCII whitespace.
std::string TrimString(std::string_view s);

/// Formats a double with `precision` significant-looking decimals,
/// trimming trailing zeros ("1.30" -> "1.3", "2.00" -> "2").
std::string FormatDouble(double v, int precision = 4);

/// Joins strings with a separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        const std::string& sep);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Encodes a double as its IEEE-754 bit pattern in fixed-width lowercase
/// hex ("0x3ff0000000000000"). Total (NaN/Inf included) and exact — the
/// distributed wire format uses this where JSON numbers would lose
/// non-finite values or round.
std::string DoubleToHex(double v);

/// Inverse of DoubleToHex. Returns false on anything but a
/// "0x" + 16-hex-digit string.
bool DoubleFromHex(const std::string& s, double* out);

}  // namespace surf

#endif  // SURF_UTIL_STRING_UTIL_H_
