// Chrome trace-event export round-trip: spans recorded through the Tracer
// must come back out as JSON the validator (and therefore Perfetto) accepts,
// and the validator itself must reject the malformed shapes it exists to
// catch — otherwise the CI smoke step that gates on it proves nothing.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "rc/team_consensus.hpp"
#include "typesys/zoo.hpp"

namespace rcons::obs {
namespace {

std::string export_trace(const Tracer& tracer) {
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  return out.str();
}

bool validate(const std::string& json, std::string* error = nullptr) {
  std::istringstream in(json);
  return validate_chrome_trace(in, error);
}

TEST(TraceTest, NestedSpansRoundTripThroughValidator) {
  Tracer tracer;
  {
    Span outer(&tracer, 0, "check");
    {
      Span inner(&tracer, 0, "explore");
      tracer.instant(0, "marker");
    }
    Span sibling(&tracer, 0, "minimize");
  }
  tracer.set_lane_name(0, "coordinator");
  EXPECT_EQ(tracer.events_recorded(), 4u);
  EXPECT_EQ(tracer.events_dropped(), 0u);

  const std::string json = export_trace(tracer);
  std::string error;
  EXPECT_TRUE(validate(json, &error)) << error;
  EXPECT_NE(json.find("\"explore\""), std::string::npos);
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
}

TEST(TraceTest, WorkerLanesStayOffLaneZeroAndWrap) {
  Tracer tracer(/*lanes=*/4);
  EXPECT_EQ(tracer.worker_lane(0), 1u);
  EXPECT_EQ(tracer.worker_lane(2), 3u);
  EXPECT_EQ(tracer.worker_lane(3), 1u);  // 1 + 3 % 3: wraps past lane count
  for (int worker = 0; worker < 8; ++worker) {
    EXPECT_GE(tracer.worker_lane(worker), 1u);
    EXPECT_LT(tracer.worker_lane(worker), tracer.lanes());
  }
}

TEST(TraceTest, BoundedLanesCountDropsAndStillExportValidJson) {
  Tracer tracer(/*lanes=*/2, /*max_events_per_lane=*/4);
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t now = tracer.now_us();
    tracer.complete(0, "expand_batch", now, now);
  }
  EXPECT_EQ(tracer.events_recorded(), 4u);
  EXPECT_EQ(tracer.events_dropped(), 6u);
  std::string error;
  EXPECT_TRUE(validate(export_trace(tracer), &error)) << error;
}

TEST(TraceTest, NullTracerSpansAreNoOps) {
  Span span(nullptr, 0, "check");
  span.close();  // must not crash; nothing to flush
}

TEST(TraceValidatorTest, RejectsGarbageAndEmptyTraces) {
  std::string error;
  EXPECT_FALSE(validate("not json at all", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(validate("{\"traceEvents\":[]}", &error));
  EXPECT_FALSE(validate("{\"somethingElse\":1}", &error));
}

TEST(TraceValidatorTest, RejectsPartiallyOverlappingSpans) {
  // [0,100] and [50,150] on one thread: neither disjoint nor nested. A tracer
  // can never emit this (RAII closes in reverse order), so seeing it means
  // the file was not produced by this pipeline — the validator must say no.
  const std::string overlapping =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":100},"
      "{\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":50,\"dur\":100}"
      "]}";
  std::string error;
  EXPECT_FALSE(validate(overlapping, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceValidatorTest, AcceptsTouchingSiblingsAndSeparateThreads) {
  // Boundary-touching spans are siblings, not overlaps; other (pid, tid)
  // pairs nest independently.
  const std::string touching =
      "{\"traceEvents\":["
      "{\"name\":\"worker\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":200},"
      "{\"name\":\"steal\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":100},"
      "{\"name\":\"expand_batch\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":100,"
      "\"dur\":100},"
      "{\"name\":\"worker\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":50,\"dur\":100}"
      "]}";
  std::string error;
  EXPECT_TRUE(validate(touching, &error)) << error;
}

TEST(TraceTest, FullCheckEmitsPhaseAndWorkerSpans) {
  auto type = typesys::make_type("Sn(2)");
  rc::TeamConsensusSystem system =
      rc::make_team_consensus_system(*type, 2, 101, 202);
  check::CheckRequest request;
  request.system.memory = std::move(system.memory);
  request.system.processes = std::move(system.processes);
  request.system.properties.valid_outputs = {101, 202};
  request.budget.crash_budget = 2;
  request.strategy = check::Strategy::kParallelBFS;
  request.num_threads = 2;

  Tracer tracer;
  request.obs.tracer = &tracer;
  const check::CheckReport report = check::check(std::move(request));
  EXPECT_TRUE(report.clean);

  const std::string json = export_trace(tracer);
  std::string error;
  ASSERT_TRUE(validate(json, &error)) << error;
  EXPECT_NE(json.find("\"check\""), std::string::npos);
  EXPECT_NE(json.find("\"explore\""), std::string::npos);
  EXPECT_NE(json.find("\"worker\""), std::string::npos);
  EXPECT_NE(json.find("\"expand_batch\""), std::string::npos);
}

}  // namespace
}  // namespace rcons::obs
