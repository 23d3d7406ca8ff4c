#include "obs/schema.hpp"

#include <algorithm>
#include <iterator>

namespace tp::obs::schema {

namespace {

enum class Kind {
    String,
    Number,
    NonNegative,
    NumberOrNull,  ///< the builder writes non-finite numbers as null
    Bool,
    NumberObject,
    NumberArray,
    CountArray,
    Enum,  ///< one of Fields::allowed
};

/// What a field of each kind must be, indexed by Kind.
constexpr const char* kExpected[] = {
    "a non-empty string",
    "a number",
    "a non-negative number",
    "a number or null",
    "a bool",
    "an object of numbers",
    "an array of numbers",
    "a non-empty array of non-negative numbers",
    "one of ",
};
static_assert(std::size(kExpected) ==
              static_cast<std::size_t>(Kind::Enum) + 1);

constexpr bool kRequired = true;
constexpr bool kOptional = false;

/// Fields of one kind and presence within a record type.
struct Fields {
    Kind kind;
    bool required;
    std::vector<std::string_view> names;
    std::vector<std::string_view> allowed = {};  ///< Kind::Enum only
};

using Problems = std::vector<std::string>;

/// The constraints of one record type that span fields. Runs after the
/// per-field checks, and skips what those already report.
using Rule = void (*)(const json::Value& rec, Problems& out);

struct RecordType {
    std::string_view type;
    std::vector<Fields> fields;
    Rule rule = nullptr;
};

// The shadow-divergence histogram (obs/numerics.hpp) buckets every
// sample exactly once, and the exact samples are a subset of them.
void numerics_rule(const json::Value& rec, Problems& out) {
    if (const json::Value* hist = rec.find("rel_hist");
        hist != nullptr && hist->is_array()) {
        double total = 0.0;
        for (const json::Value& bucket : hist->items())
            total += bucket.is_number() ? bucket.as_number() : 0.0;
        if (total != rec.number_or("samples", -1.0))
            out.push_back("rel_hist does not sum to samples");
    }
    if (rec.number_or("exact", 0.0) > rec.number_or("samples", 0.0))
        out.push_back("exact > samples");
}

// Version 1 stores raw arrays and an empty `bits`; version 2 carries one
// compressor rate per array, each in the compressor's legal range.
void checkpoint_rule(const json::Value& rec, Problems& out) {
    const double version = rec.number_or("version", 0.0);
    if (version != 1.0 && version != 2.0)
        out.push_back("version is not 1|2");
    const json::Value* bits = rec.find("bits");
    if (bits == nullptr || !bits->is_array()) return;
    if (version == 2.0 && bits->items().empty())
        out.push_back("is version 2 but carries no per-array rates");
    if (std::any_of(bits->items().begin(), bits->items().end(),
                    [](const json::Value& b) {
                        return b.is_number() &&
                               (b.as_number() < 2.0 || b.as_number() > 32.0);
                    }))
        out.push_back("bits entry outside [2,32]");
}

// The critical-path analyzer (obs/report.hpp) indexes every per-rank
// array by rank, so each must be exactly `ranks` long.
void dist_rule(const json::Value& rec, Problems& out) {
    const double ranks = rec.number_or("ranks", 0.0);
    if (ranks < 1.0) out.push_back("ranks < 1");
    for (const auto& [key, value] : rec.members())
        if (value.is_array() &&
            static_cast<double>(value.items().size()) != ranks)
            out.push_back("'" + key + "' length does not match ranks");
}

/// The record vocabulary: every type the metrics stream may carry.
const std::vector<RecordType>& record_types() {
    static const std::vector<RecordType> types{
        // First line (obs/metrics.hpp write_manifest); drivers add their
        // configuration as extra string fields.
        {"manifest",
         {{Kind::String, kRequired,
           {"program", "git_sha", "compiler", "host", "start_time"}},
          {Kind::Enum, kRequired, {"build"}, {"release", "debug"}},
          {Kind::NonNegative, kRequired, {"threads"}},
          {Kind::Bool, kOptional, {"openmp"}}}},
        // One per step from each driver loop, with its own counters.
        {"step",
         {{Kind::Number, kRequired, {"t", "dt"}},
          {Kind::Number, kOptional, {"step"}},
          {Kind::NonNegative, kOptional, {"wall_s", "flops", "rezones"}},
          {Kind::NumberObject, kOptional, {"phase_seconds"}}}},
        // A numerical fault, written before it is thrown (obs/probe.hpp).
        {"diagnostic",
         {{Kind::String, kRequired, {"severity", "kernel", "detail"}},
          {Kind::Number, kRequired, {"step"}}}},
        // Per-kernel NaN/Inf and range health (obs/probe.hpp).
        {"probe",
         {{Kind::String, kRequired, {"kernel"}},
          {Kind::NonNegative, kRequired,
           {"samples", "nan_count", "inf_count", "max_ulp_drift"}},
          {Kind::NumberOrNull, kRequired, {"min", "max"}},
          {Kind::Number, kRequired, {"first_bad_index"}},
          {Kind::Bool, kRequired, {"healthy"}}}},
        // Shadow divergence of one (kernel, array) pair (obs/numerics.hpp).
        {"numerics",
         {{Kind::String, kRequired, {"kernel", "array"}},
          {Kind::Number, kRequired,
           {"samples", "exact", "max_ulp", "mean_ulp", "sum_abs_err",
            "max_abs_ref", "rel_hist_lo_exp", "sample_stride"}},
          {Kind::NumberOrNull, kRequired, {"max_rel", "mean_rel"}},
          {Kind::CountArray, kRequired, {"rel_hist"}}},
         numerics_rule},
        // A runtime precision transition (fp/governor.hpp).
        {"governor",
         {{Kind::String, kRequired, {"kernel"}},
          {Kind::Enum, kRequired, {"action"}, {"promote", "demote"}},
          {Kind::Enum, kRequired, {"from", "to"}, {"float", "double"}},
          {Kind::Number, kRequired,
           {"step", "max_ulp", "tail_frac", "samples", "clean_steps",
            "drift_budget_ulp", "tail_budget_frac"}}}},
        // Bench table echo (util/table.hpp): free-form title and cells.
        {"table", {}},
        // One checkpoint write (io/checkpoint.hpp).
        {"checkpoint",
         {{Kind::String, kRequired, {"path"}},
          {Kind::Number, kRequired,
           {"step", "version", "raw_bytes", "written_bytes", "ratio",
            "snapshot_s", "write_s", "stall_s"}},
          {Kind::NumberArray, kRequired, {"bits"}}},
         checkpoint_rule},
        // Per-rank phase split of one distributed step
        // (examples/dam_break_dist).
        {"dist",
         {{Kind::Number, kRequired, {"step", "ranks", "wall_s"}},
          {Kind::CountArray, kRequired,
           {"post_s", "precompute_s", "interior_s", "wait_s", "boundary_s",
            "halo_bytes"}},
          {Kind::NonNegative, kRequired, {"resplits"}}},
         dist_rule},
        // Trace-session totals, written at shutdown (obs/obs.hpp).
        {"trace", {{Kind::NonNegative, kRequired, {"events", "dropped"}}}},
    };
    return types;
}

const RecordType* find_type(std::string_view type) {
    for (const RecordType& rt : record_types())
        if (rt.type == type) return &rt;
    return nullptr;
}

bool is_number(const json::Value& v) { return v.is_number(); }

bool non_negative(const json::Value& v) {
    return v.is_number() && v.as_number() >= 0.0;
}

bool matches(const Fields& f, const json::Value& v) {
    const std::vector<json::Value>& items = v.items();
    switch (f.kind) {
        case Kind::String:
            return v.is_string() && !v.as_string().empty();
        case Kind::Number:
            return v.is_number();
        case Kind::NonNegative:
            return non_negative(v);
        case Kind::NumberOrNull:
            return v.is_number() || v.is_null();
        case Kind::Bool:
            return v.is_bool();
        case Kind::NumberObject:
            return v.is_object() &&
                   std::all_of(v.members().begin(), v.members().end(),
                               [](const json::Value::Member& m) {
                                   return is_number(m.second);
                               });
        case Kind::NumberArray:
            return v.is_array() &&
                   std::all_of(items.begin(), items.end(), is_number);
        case Kind::CountArray:
            return v.is_array() && !items.empty() &&
                   std::all_of(items.begin(), items.end(), non_negative);
        case Kind::Enum:
            return v.is_string() &&
                   std::count(f.allowed.begin(), f.allowed.end(),
                              v.as_string()) > 0;
    }
    return false;
}

std::string expected(const Fields& f) {
    std::string out = kExpected[static_cast<std::size_t>(f.kind)];
    for (std::size_t i = 0; i < f.allowed.size(); ++i)
        out.append(i == 0 ? "" : "|").append(f.allowed[i]);
    return out;
}

}  // namespace

bool known_type(std::string_view type) { return find_type(type) != nullptr; }

std::vector<std::string> check_record(const json::Value& rec) {
    if (!rec.is_object()) return {"record is not a JSON object"};
    const json::Value* type = rec.find("type");
    if (type == nullptr || !type->is_string())
        return {"record has no string 'type'"};
    const RecordType* rt = find_type(type->as_string());
    if (rt == nullptr) {
        std::string known;
        for (const RecordType& t : record_types())
            known.append(known.empty() ? "" : ", ").append(t.type);
        return {"unknown record type '" + type->as_string() +
                "' (known: " + known + ")"};
    }
    Problems out;
    for (const Fields& f : rt->fields)
        for (const std::string_view name : f.names) {
            const json::Value* v = rec.find(name);
            if (v == nullptr && f.required)
                out.push_back("field '" + std::string(name) + "' is missing");
            else if (v != nullptr && !matches(f, *v))
                out.push_back("field '" + std::string(name) + "' is not " +
                              expected(f));
        }
    if (rt->rule != nullptr) rt->rule(rec, out);
    for (std::string& problem : out)
        problem = std::string(rt->type) + " record: " + problem;
    return out;
}

}  // namespace tp::obs::schema
