#include "common/output_file.h"

#include "common/logging.h"

namespace pgrid {

FilePtr open_for_write(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    PGRID_ERROR("io", "cannot open %s for writing", path.c_str());
  }
  return f;
}

bool close_checked(FilePtr f, const std::string& path) {
  std::FILE* raw = f.release();
  const bool write_failed = std::ferror(raw) != 0;
  const bool close_failed = std::fclose(raw) != 0;
  if (write_failed || close_failed) {
    PGRID_ERROR("io", "cannot write %s", path.c_str());
    return false;
  }
  return true;
}

}  // namespace pgrid
