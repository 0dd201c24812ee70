#include "server/http.h"

#include <unistd.h>

#include <cerrno>
#include <utility>

#include "server/protocol.h"

namespace cafe::server {
namespace {

// A request line plus headers larger than this is not an operator with
// curl; drop the connection instead of buffering unboundedly.
constexpr size_t kMaxRequestBytes = 8192;

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

// Reads until the blank line ending the headers, EOF, or the size cap.
// Returns false when no complete request line arrived.
bool ReadRequestHead(int fd, std::string* head) {
  char buf[1024];
  while (head->size() < kMaxRequestBytes) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) break;  // EOF — whatever arrived is all there is
    head->append(buf, static_cast<size_t>(n));
    if (head->find("\r\n\r\n") != std::string::npos ||
        head->find("\n\n") != std::string::npos) {
      break;
    }
  }
  // A usable head has at least a full request line.
  return head->find('\n') != std::string::npos;
}

void WriteResponse(int fd, const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  // A peer that went away yields an error, not SIGPIPE; there is
  // nothing useful to do with it.
  SendAll(fd, out).IgnoreError();
}

}  // namespace

HttpServer::HttpServer(HttpHandler handler, const HttpOptions& options)
    : handler_(std::move(handler)), options_(options) {
  if (options_.metrics != nullptr) {
    requests_ = options_.metrics->GetCounter("server.http_requests");
  }
}

void HttpServer::HandleConnection(int fd) {
  std::string head;
  if (ReadRequestHead(fd, &head)) {
    if (requests_ != nullptr) requests_->Increment();
    // Request line: METHOD SP PATH SP VERSION. Everything from '?' on
    // is split off and handed to the handler as the raw query string.
    const size_t eol = head.find_first_of("\r\n");
    const std::string line = head.substr(0, eol);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.find(' ', sp1 == std::string::npos ? sp1
                                                               : sp1 + 1);
    HttpResponse response;
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      response.status = 400;
      response.body = "malformed request line\n";
    } else if (line.substr(0, sp1) != "GET") {
      response.status = 405;
      response.body = "only GET is supported\n";
    } else {
      std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      std::string query_string;
      const size_t query = path.find('?');
      if (query != std::string::npos) {
        query_string = path.substr(query + 1);
        path.resize(query);
      }
      response = handler_(path, query_string);
    }
    WriteResponse(fd, response);
  }
}

}  // namespace cafe::server
