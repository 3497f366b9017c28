#ifndef SURF_API_API_H_
#define SURF_API_API_H_

/// \file
/// \brief API/library version constants and build information.
///
/// The public request surface is versioned independently of the library:
/// `kApiVersion` is the current (v2) schema every front-end speaks
/// natively, `kApiMinVersion` the oldest schema still accepted (the v1
/// flat request document, translated into v2 at decode time). Clients
/// negotiate by calling `GET /v1/version` (surfd), `surf_cli --version`,
/// or `GetBuildInfo()` in-process, and may then send either schema — the
/// decoder dispatches on the document's `api_version` field.

#include <string>

namespace surf {

/// Current request-schema version (the v2 surface of api_v2.h).
inline constexpr int kApiVersion = 2;
/// Oldest request-schema version still accepted.
inline constexpr int kApiMinVersion = 1;
/// Library release this tree builds.
inline constexpr const char kLibraryVersion[] = "0.4.0";

/// \brief Compile-time identification of this build, for version
/// negotiation and bug reports.
struct BuildInfo {
  /// Current request-schema version (kApiVersion).
  int api_version = kApiVersion;
  /// Oldest request-schema version still accepted (kApiMinVersion).
  int api_min_version = kApiMinVersion;
  /// Library release string (kLibraryVersion).
  std::string library_version;
  /// Compiler identification, e.g. "gcc 13.2".
  std::string compiler;
  /// C++ standard the tree was compiled as, e.g. "c++20".
  std::string cxx_standard;
};

/// This build's identification.
BuildInfo GetBuildInfo();

/// One-line human-readable form, e.g.
/// "surf 0.4.0 (api v2, min v1; gcc 13.2, c++20)".
std::string VersionString();

}  // namespace surf

#endif  // SURF_API_API_H_
