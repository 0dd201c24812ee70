#include "util/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace cafe {

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open for read: " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed: " + path);
  }
  *out = ss.str();
  return Status::OK();
}

Status WriteStringToFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open for write: " + path);
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("remove failed: " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

int64_t GetEnvInt(const char* name, int64_t default_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return default_value;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return default_value;
  return parsed;
}

std::string TempDir() {
  const char* t = std::getenv("TMPDIR");
  if (t != nullptr && *t != '\0') return t;
  return "/tmp";
}

}  // namespace cafe
