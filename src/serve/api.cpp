#include "serve/api.hpp"

namespace wisdom::serve {

std::string_view api_version_prefix(ApiVersion version) {
  switch (version) {
    case ApiVersion::V1: return "/v1";
  }
  return "/v1";
}

int http_status(ServiceError error) {
  switch (error) {
    case ServiceError::None: return 200;
    case ServiceError::InvalidRequest: return 400;
    case ServiceError::DeadlineExceeded: return 408;
    case ServiceError::LintRejected: return 422;
    case ServiceError::Overloaded: return 429;
    case ServiceError::Draining: return 503;
  }
  return 500;
}

int http_status(const SuggestionResponse& response) {
  return response.ok ? 200 : http_status(response.error);
}

std::string_view http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Content";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
  }
  return "Unknown";
}

}  // namespace wisdom::serve
