#pragma once
// The metrics-record vocabulary (obs/metrics.hpp). schema.cpp holds one
// table of every record type: its fields, each with a kind and a
// required flag, plus one rule per type for the constraints that span
// fields. Fields a type does not declare are allowed (the manifest and
// each driver's step record carry their own extras).
//
// examples/obs_check validates every line with check_record();
// report::summarize() asks known_type(). The emitters sit on the solver
// path and never call in here; their tests assert check_record() is
// empty on what they write.

#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace tp::obs::schema {

/// True when `type` names a record type in the schema table.
[[nodiscard]] bool known_type(std::string_view type);

/// Every problem with `rec` as one metrics record: not an object, no
/// string "type", a type the table does not know, a required field
/// missing, a field of the wrong kind, or a broken cross-field rule.
/// Empty when the record is valid.
[[nodiscard]] std::vector<std::string> check_record(const json::Value& rec);

}  // namespace tp::obs::schema
