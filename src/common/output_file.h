#pragma once
// Output files for the exporters. A FilePtr closes on scope exit (the early
// returns); close_checked() ends a finished write and reports whether every
// byte reached the file.

#include <cstdio>
#include <memory>
#include <string>

namespace pgrid {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Open `path` for writing; null, after logging the error, on failure.
[[nodiscard]] FilePtr open_for_write(const std::string& path);

/// Close `f`; false, after logging the error, when a write or the close
/// failed. A file smaller than the stdio buffer is written only at the
/// close, so its result is the only report of that failure.
[[nodiscard]] bool close_checked(FilePtr f, const std::string& path);

}  // namespace pgrid
