// obs_check: CI validator for the flight-recorder output formats.
//
// Checks that a Chrome-trace file and/or a metrics JSON-Lines file are
// well-formed and carry the records a healthy run must produce:
//
//   $ ./obs_check --trace=run.trace.json
//                 --metrics=run.metrics.jsonl
//                 --require=clamr.step,clamr.flux_sweep,clamr.rezone
//
// Exit status is 0 when every check passes, 1 otherwise, with one line
// per failure on stderr. Metrics lines are checked against the record
// schema (obs/schema.hpp); the --require-* checks read tp_report's run
// summary (obs/report.hpp).

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/schema.hpp"
#include "util/cli.hpp"

using namespace tp;

namespace {

int failures = 0;

void fail(const std::string& msg) {
    std::fprintf(stderr, "obs_check: FAIL: %s\n", msg.c_str());
    ++failures;
}

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(s);
    while (std::getline(is, item, ','))
        if (!item.empty()) out.push_back(item);
    return out;
}

// Flow-event (halo arrow) validation: every ph:"s" start must carry a
// unique id and be closed by exactly one ph:"f" finish with the same id
// at a timestamp no earlier than the start, and every rank-track event
// (pid 2, including the flow endpoints' src/dst args) must reference a
// rank the metadata thread_name records declared. A trace that fails any
// of these renders as dangling or misrouted arrows in Perfetto.
void check_trace_flows(const std::string& path,
                       const obs::json::Value& events) {
    std::set<double> rank_tracks;  // tids named by thread_name metadata
    for (const obs::json::Value& e : events.items()) {
        if (e.string_or("ph", "") == "M" &&
            e.string_or("name", "") == "thread_name" &&
            e.number_or("pid", -1.0) == 2.0) {
            const double tid = e.number_or("tid", -1.0);
            if (tid < 0.0)
                fail("trace file '" + path +
                     "' declares a negative rank track id");
            else
                rank_tracks.insert(tid);
        }
    }
    std::map<double, double> open_starts;  // flow id -> start ts
    std::size_t starts = 0;
    std::size_t finishes = 0;
    for (const obs::json::Value& e : events.items()) {
        const std::string ph = e.string_or("ph", "");
        const bool rank_event =
            e.number_or("pid", -1.0) == 2.0 && ph != "M";
        if (rank_event && rank_tracks.count(e.number_or("tid", -1.0)) == 0)
            fail("trace file '" + path + "' event '" +
                 e.string_or("name", "?") +
                 "' sits on an undeclared rank track");
        if (ph != "s" && ph != "f") continue;
        const obs::json::Value* id = e.find("id");
        if (id == nullptr || !id->is_number()) {
            fail("trace file '" + path + "' flow event has no numeric id");
            continue;
        }
        for (const char* endpoint : {"src", "dst"}) {
            const obs::json::Value* args = e.find("args");
            if (args == nullptr ||
                rank_tracks.count(args->number_or(endpoint, -1.0)) == 0)
                fail("trace file '" + path + "' flow id " +
                     std::to_string(id->as_number()) + " names an " +
                     "out-of-range rank in args." + endpoint);
        }
        if (ph == "s") {
            ++starts;
            if (!open_starts
                     .emplace(id->as_number(), e.number_or("ts", 0.0))
                     .second)
                fail("trace file '" + path + "' reuses flow id " +
                     std::to_string(id->as_number()));
        } else {
            ++finishes;
            const auto it = open_starts.find(id->as_number());
            if (it == open_starts.end()) {
                fail("trace file '" + path + "' flow finish id " +
                     std::to_string(id->as_number()) +
                     " has no matching start");
            } else {
                if (e.number_or("ts", 0.0) < it->second)
                    fail("trace file '" + path + "' flow id " +
                         std::to_string(id->as_number()) +
                         " finishes before it starts");
                open_starts.erase(it);
            }
        }
    }
    if (!open_starts.empty())
        fail("trace file '" + path + "' has " +
             std::to_string(open_starts.size()) +
             " flow start(s) with no finish");
    if ((starts != 0 || finishes != 0) && rank_tracks.empty())
        fail("trace file '" + path +
             "' carries flow events but no rank-track metadata");
}

// Every event carries name, ph and pid; every event but metadata ("M")
// also tid and ts; every complete ("X") event also dur.
void check_trace(const std::string& path,
                 const std::vector<std::string>& required_spans) {
    const std::string file = "trace file '" + path + "'";
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        fail(file + " cannot be opened");
        return;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const auto root = obs::json::parse(buf.str());
    if (!root) {
        fail(file + " is not valid JSON");
        return;
    }
    const obs::json::Value* events = root->find("traceEvents");
    if (events == nullptr || !events->is_array() || events->items().empty()) {
        fail(file + " has no traceEvents");
        return;
    }
    std::set<std::string> names;
    std::map<std::string, std::size_t> missing;  // field -> events lacking it
    for (const obs::json::Value& e : events->items()) {
        names.insert(e.string_or("name", ""));
        const std::string ph = e.string_or("ph", "");
        std::vector<const char*> fields{"name", "ph", "pid"};
        if (ph != "M") fields.insert(fields.end(), {"tid", "ts"});
        if (ph == "X") fields.push_back("dur");
        for (const char* key : fields)
            if (e.find(key) == nullptr) ++missing[key];
    }
    for (const auto& [key, count] : missing)
        fail(file + " has " + std::to_string(count) +
             " event(s) without the '" + key + "' field");
    for (const std::string& span : required_spans)
        if (names.count(span) == 0)
            fail(file + " has no '" + span + "' span");
    check_trace_flows(path, *events);
}

// Every line must be one schema-valid record (obs/schema.hpp), the first
// a manifest. The --require-* checks then ask the run summary: phase
// names are the keys of the steps' phase_seconds, never any other field.
void check_metrics(const std::string& path,
                   const std::vector<std::string>& required_phases,
                   const std::vector<std::string>& required_numerics,
                   const std::vector<std::string>& required_governor,
                   bool require_checkpoint, bool require_dist) {
    const std::string file = "metrics file '" + path + "'";
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        fail(file + " cannot be opened");
        return;
    }
    std::vector<std::string> lines;
    std::string line;
    bool manifest_first = false;
    while (std::getline(is, line)) {
        lines.push_back(line);
        const std::string at = file + " line " + std::to_string(lines.size());
        const auto rec = obs::json::parse(line);
        if (line.empty() || !rec) {
            fail(at + (line.empty() ? " is empty" : " is not valid JSON"));
            continue;
        }
        if (lines.size() == 1)
            manifest_first = rec->string_or("type", "") == "manifest";
        for (const std::string& problem : obs::schema::check_record(*rec))
            fail(at + ": " + problem);
    }
    if (!manifest_first) fail(file + " does not start with a manifest record");

    const obs::report::RunSummary run = obs::report::summarize(lines);
    std::set<std::string> numerics_kernels, governor_kernels;
    for (const auto& [kernel_array, entry] : run.numerics)
        numerics_kernels.insert(
            kernel_array.substr(0, kernel_array.rfind('/')));
    for (const obs::report::GovernorEvent& e : run.governor_events)
        governor_kernels.insert(e.kernel);
    if (run.steps == 0) fail(file + " has no step records");
    for (const std::string& phase : required_phases)
        if (run.phase_seconds.count(phase) == 0)
            fail("no step record carries a '" + phase + "' phase timing");
    for (const std::string& kernel : required_numerics)
        if (numerics_kernels.count(kernel) == 0)
            fail("no numerics record for kernel '" + kernel + "'");
    for (const std::string& kernel : required_governor)
        if (governor_kernels.count(kernel) == 0)
            fail("no governor transition record for kernel '" + kernel +
                 "'");
    if (require_checkpoint && run.checkpoints == 0)
        fail(file + " has no {\"type\":\"checkpoint\"} record");
    if (require_dist && run.dist_steps.empty())
        fail(file + " has no {\"type\":\"dist\"} record");
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser args("obs_check",
                         "validate flight-recorder trace/metrics output");
    args.add_option("trace", "Chrome-trace JSON file to validate", "");
    args.add_option("metrics", "metrics JSON-Lines file to validate", "");
    args.add_option("require",
                    "comma-separated span names the trace must contain",
                    "");
    args.add_option("require-phases",
                    "comma-separated phase timers the step records must "
                    "contain",
                    "");
    args.add_option("require-numerics",
                    "comma-separated kernels that must have a "
                    "{\"type\":\"numerics\"} divergence record",
                    "");
    args.add_option("require-governor",
                    "comma-separated kernels that must have a "
                    "{\"type\":\"governor\"} transition record",
                    "");
    args.add_flag("require-checkpoint",
                  "fail unless the metrics carry at least one "
                  "{\"type\":\"checkpoint\"} record");
    args.add_flag("require-dist",
                  "fail unless the metrics carry at least one "
                  "{\"type\":\"dist\"} per-rank phase record");
    if (!args.parse(argc, argv)) return 1;

    const std::string trace = args.get_string("trace");
    const std::string metrics = args.get_string("metrics");
    if (trace.empty() && metrics.empty()) {
        std::fprintf(stderr,
                     "obs_check: nothing to do (pass --trace and/or "
                     "--metrics)\n");
        return 1;
    }
    if (!trace.empty())
        check_trace(trace, split_csv(args.get_string("require")));
    if (!metrics.empty())
        check_metrics(metrics, split_csv(args.get_string("require-phases")),
                      split_csv(args.get_string("require-numerics")),
                      split_csv(args.get_string("require-governor")),
                      args.get_flag("require-checkpoint"),
                      args.get_flag("require-dist"));

    if (failures == 0) {
        std::printf("obs_check: OK (%s%s%s)\n", trace.c_str(),
                    (!trace.empty() && !metrics.empty()) ? ", " : "",
                    metrics.c_str());
        return 0;
    }
    std::fprintf(stderr, "obs_check: %d check(s) failed\n", failures);
    return 1;
}
