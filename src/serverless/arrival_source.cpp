#include "serverless/arrival_source.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "serverless/platform.hpp"

namespace smiless::serverless {

void ArrivalSource::add(AppId app, std::vector<SimTime> arrivals) {
  SMILESS_CHECK(std::is_sorted(arrivals.begin(), arrivals.end()));
  Stream& s = streams_.emplace_back();
  s.app = app;
  s.arrivals = std::move(arrivals);
  s.cursor = workload::ArrivalCursor(&s.arrivals);
}

SimTime ArrivalSource::next_time() const {
  SimTime earliest = std::numeric_limits<double>::infinity();
  for (const Stream& s : streams_) earliest = std::min(earliest, s.cursor.next_time());
  return earliest;
}

void ArrivalSource::inject_through(SimTime t) {
  for (Stream& s : streams_)
    s.cursor.drain_through(t, [&](SimTime arrival) { platform_->submit_request(s.app, arrival); });
}

void ArrivalSource::inject_before(SimTime limit) {
  for (Stream& s : streams_)
    s.cursor.drain_before(limit,
                          [&](SimTime arrival) { platform_->submit_request(s.app, arrival); });
}

void ArrivalSource::flush() {
  for (Stream& s : streams_)
    s.cursor.drain_all([&](SimTime arrival) { platform_->submit_request(s.app, arrival); });
}

}  // namespace smiless::serverless
