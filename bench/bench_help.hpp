// `--help` for the bench binaries: each bench checks its arguments with
// help_requested() before doing any work, so `bench_x --help` prints the
// usage and exits 0 instead of running (or rejecting) the bench.
#pragma once

#include <cstdio>
#include <cstring>

namespace netcons::bench {

/// Prints `usage` to stdout and returns true if any argument is --help or -h.
inline bool help_requested(int argc, char** argv, const char* usage) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::fputs(usage, stdout);
      return true;
    }
  }
  return false;
}

}  // namespace netcons::bench
