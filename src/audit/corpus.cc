#include "audit/corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "audit/generate.h"
#include "common/format.h"

namespace cedr {
namespace audit {

namespace {

std::string TimeToToken(Time t) {
  if (t == kInfinity) return "inf";
  return std::to_string(t);
}

Result<Time> TimeFromToken(const std::string& tok) {
  if (tok == "inf") return kInfinity;
  try {
    return static_cast<Time>(std::stoll(tok));
  } catch (...) {
    return Status::ParseError(StrCat("bad time token: ", tok));
  }
}

std::string ValueToToken(const Value& v) {
  if (v.type() == ValueType::kDouble) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
    return buf;
  }
  return std::to_string(v.AsInt64());
}

Result<Value> ValueFromToken(const std::string& tok, ValueType type) {
  try {
    if (type == ValueType::kDouble) return Value(std::stod(tok));
    return Value(static_cast<int64_t>(std::stoll(tok)));
  } catch (...) {
    return Status::ParseError(StrCat("bad value token: ", tok));
  }
}

std::string SpecToTokens(const ConsistencySpec& spec) {
  return StrCat(TimeToToken(spec.max_blocking), " ",
                TimeToToken(spec.max_memory));
}

void FormatStream(std::string* out, const LabeledStream& stream,
                  const SchemaPtr& schema) {
  *out += StrCat("stream ", stream.event_type, " ", SchemaName(schema), "\n");
  for (const Message& m : stream.messages) {
    const Event& e = m.event;
    std::string payload;
    for (size_t i = 0; i < e.payload.size(); ++i) {
      payload += StrCat(" ", ValueToToken(e.payload.at(i)));
    }
    if (m.kind == MessageKind::kInsert) {
      *out += StrCat("i ", e.id, " ", TimeToToken(e.vs), " ",
                     TimeToToken(e.ve), " ", TimeToToken(m.cs), payload, "\n");
    } else if (m.kind == MessageKind::kRetract) {
      *out += StrCat("r ", e.id, " ", TimeToToken(e.vs), " ",
                     TimeToToken(e.ve), " ", TimeToToken(m.new_ve), " ",
                     TimeToToken(m.cs), payload, "\n");
    }
  }
  *out += "end\n";
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

Result<Row> ParsePayload(const std::vector<std::string>& toks, size_t from,
                         const SchemaPtr& schema) {
  if (schema == nullptr) {
    return Status::ParseError("message line before a stream schema");
  }
  if (toks.size() - from != schema->num_fields()) {
    return Status::ParseError(
        StrCat("payload arity mismatch: ", toks.size() - from, " vs ",
               schema->num_fields()));
  }
  std::vector<Value> values;
  for (size_t i = from; i < toks.size(); ++i) {
    CEDR_ASSIGN_OR_RETURN(
        Value v,
        ValueFromToken(toks[i], schema->fields()[i - from].type));
    values.push_back(std::move(v));
  }
  return Row(schema, std::move(values));
}

}  // namespace

std::string FormatCase(const AuditCase& c) {
  std::string out;
  out += StrCat("case ", c.name.empty() ? "unnamed" : c.name, "\n");
  if (!c.op_name.empty()) out += StrCat("op ", c.op_name, "\n");
  if (!c.query_text.empty()) {
    std::istringstream lines(c.query_text);
    std::string line;
    while (std::getline(lines, line)) out += StrCat("query ", line, "\n");
  }
  for (const auto& [type, schema] : c.catalog) {
    out += StrCat("schema ", type, " ", SchemaName(schema), "\n");
  }
  out += StrCat("spec ", SpecToTokens(c.spec), "\n");
  out += StrCat("mode ", ExecModeToString(c.schedule.mode), "\n");
  if (c.schedule.mode == ExecMode::kParallel) {
    out += StrCat("workers ", c.schedule.workers, "\n");
  }
  if (c.schedule.mode == ExecMode::kSnapshotRestore) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", c.schedule.snapshot_at);
    out += StrCat("snapshot_at ", buf, "\n");
  }
  if (c.schedule.mode == ExecMode::kBatch) {
    out += StrCat("batch_size ", c.schedule.batch_size, "\n");
  }
  for (const auto& [at, spec] : c.schedule.switches) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", at);
    out += StrCat("switch ", buf, " ", SpecToTokens(spec), "\n");
  }
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  c.schedule.disorder.disorder_fraction);
    out += StrCat("disorder ", buf, " ", c.schedule.disorder.max_delay, " ",
                  c.schedule.disorder.cti_period, " ",
                  c.schedule.disorder.seed, "\n");
  }
  for (const LabeledStream& stream : c.inputs) {
    SchemaPtr schema;
    if (!stream.messages.empty()) {
      schema = stream.messages.front().event.payload.schema();
    }
    if (schema == nullptr) schema = KvSchema();
    FormatStream(&out, stream, schema);
  }
  return out;
}

Result<AuditCase> ParseCase(const std::string& text) {
  AuditCase c;
  c.spec = ConsistencySpec::Middle();
  LabeledStream* current = nullptr;
  SchemaPtr current_schema;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    auto fail = [&](const std::string& why) {
      return Status::ParseError(StrCat("corpus line ", lineno, ": ", why));
    };
    std::vector<std::string> toks = Tokenize(line);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];

    if (current != nullptr) {
      if (kw == "end") {
        current = nullptr;
        current_schema = nullptr;
        continue;
      }
      if (kw == "i") {
        if (toks.size() < 5) return fail("insert needs id vs ve cs payload");
        CEDR_ASSIGN_OR_RETURN(Time vs, TimeFromToken(toks[2]));
        CEDR_ASSIGN_OR_RETURN(Time ve, TimeFromToken(toks[3]));
        CEDR_ASSIGN_OR_RETURN(Time cs, TimeFromToken(toks[4]));
        CEDR_ASSIGN_OR_RETURN(Row payload,
                              ParsePayload(toks, 5, current_schema));
        uint64_t id = 0;
        try {
          id = std::stoull(toks[1]);
        } catch (...) {
          return fail("bad event id");
        }
        Event e = MakeEvent(id, vs, ve, std::move(payload));
        e.cs = cs;
        current->messages.push_back(InsertOf(std::move(e), cs));
        continue;
      }
      if (kw == "r") {
        if (toks.size() < 6) {
          return fail("retract needs id vs old_ve new_ve cs payload");
        }
        CEDR_ASSIGN_OR_RETURN(Time vs, TimeFromToken(toks[2]));
        CEDR_ASSIGN_OR_RETURN(Time old_ve, TimeFromToken(toks[3]));
        CEDR_ASSIGN_OR_RETURN(Time new_ve, TimeFromToken(toks[4]));
        CEDR_ASSIGN_OR_RETURN(Time cs, TimeFromToken(toks[5]));
        CEDR_ASSIGN_OR_RETURN(Row payload,
                              ParsePayload(toks, 6, current_schema));
        uint64_t id = 0;
        try {
          id = std::stoull(toks[1]);
        } catch (...) {
          return fail("bad event id");
        }
        Event e = MakeEvent(id, vs, old_ve, std::move(payload));
        current->messages.push_back(RetractOf(e, new_ve, cs));
        continue;
      }
      return fail(StrCat("unknown message kind: ", kw));
    }

    if (kw == "case") {
      c.name = toks.size() > 1 ? toks[1] : "";
    } else if (kw == "op") {
      if (toks.size() != 2) return fail("op needs a registry name");
      c.op_name = toks[1];
    } else if (kw == "query") {
      std::string rest =
          line.size() > 6 ? line.substr(6) : std::string();
      if (!c.query_text.empty()) c.query_text += "\n";
      c.query_text += rest;
    } else if (kw == "schema") {
      if (toks.size() != 3) return fail("schema needs: type name");
      SchemaPtr schema = SchemaByName(toks[2]);
      if (schema == nullptr) return fail(StrCat("unknown schema ", toks[2]));
      c.catalog[toks[1]] = schema;
    } else if (kw == "spec") {
      if (toks.size() != 3) return fail("spec needs: B M");
      CEDR_ASSIGN_OR_RETURN(Time b, TimeFromToken(toks[1]));
      CEDR_ASSIGN_OR_RETURN(Time m, TimeFromToken(toks[2]));
      c.spec = ConsistencySpec::Custom(b, m);
    } else if (kw == "mode") {
      if (toks.size() != 2) return fail("mode needs a value");
      if (toks[1] == "serial") {
        c.schedule.mode = ExecMode::kSerial;
      } else if (toks[1] == "parallel") {
        c.schedule.mode = ExecMode::kParallel;
      } else if (toks[1] == "snapshot") {
        c.schedule.mode = ExecMode::kSnapshotRestore;
      } else if (toks[1] == "switch") {
        c.schedule.mode = ExecMode::kSwitchLevels;
      } else if (toks[1] == "batch") {
        c.schedule.mode = ExecMode::kBatch;
      } else {
        return fail(StrCat("unknown mode ", toks[1]));
      }
    } else if (kw == "workers") {
      if (toks.size() != 2) return fail("workers needs a count");
      c.schedule.workers = std::atoi(toks[1].c_str());
    } else if (kw == "snapshot_at") {
      if (toks.size() != 2) return fail("snapshot_at needs a fraction");
      c.schedule.snapshot_at = std::atof(toks[1].c_str());
    } else if (kw == "batch_size") {
      if (toks.size() != 2) return fail("batch_size needs a count");
      c.schedule.batch_size =
          static_cast<size_t>(std::strtoull(toks[1].c_str(), nullptr, 10));
      if (c.schedule.batch_size == 0) return fail("batch_size must be > 0");
    } else if (kw == "switch") {
      if (toks.size() != 4) return fail("switch needs: frac B M");
      CEDR_ASSIGN_OR_RETURN(Time b, TimeFromToken(toks[2]));
      CEDR_ASSIGN_OR_RETURN(Time m, TimeFromToken(toks[3]));
      c.schedule.switches.emplace_back(std::atof(toks[1].c_str()),
                                       ConsistencySpec::Custom(b, m));
    } else if (kw == "disorder") {
      if (toks.size() != 5) {
        return fail("disorder needs: fraction max_delay cti_period seed");
      }
      c.schedule.disorder.disorder_fraction = std::atof(toks[1].c_str());
      CEDR_ASSIGN_OR_RETURN(c.schedule.disorder.max_delay,
                            TimeFromToken(toks[2]));
      CEDR_ASSIGN_OR_RETURN(c.schedule.disorder.cti_period,
                            TimeFromToken(toks[3]));
      try {
        c.schedule.disorder.seed = std::stoull(toks[4]);
      } catch (...) {
        return fail("bad disorder seed");
      }
    } else if (kw == "stream") {
      if (toks.size() != 3) return fail("stream needs: label schema");
      current_schema = SchemaByName(toks[2]);
      if (current_schema == nullptr) {
        return fail(StrCat("unknown schema ", toks[2]));
      }
      c.inputs.push_back({toks[1], {}});
      current = &c.inputs.back();
    } else {
      return fail(StrCat("unknown directive ", kw));
    }
  }
  if (current != nullptr) {
    return Status::ParseError("unterminated stream block (missing 'end')");
  }
  if (c.op_name.empty() == c.query_text.empty()) {
    return Status::ParseError(
        "corpus case must set exactly one of 'op' / 'query'");
  }
  return c;
}

Status SaveCase(const AuditCase& c, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::InvalidArgument(StrCat("cannot open ", path));
  out << FormatCase(c);
  out.close();
  if (!out) return Status::Internal(StrCat("write failed: ", path));
  return Status::OK();
}

Result<AuditCase> LoadCase(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound(StrCat("cannot open ", path));
  std::ostringstream buf;
  buf << in.rdbuf();
  CEDR_ASSIGN_OR_RETURN(AuditCase c, ParseCase(buf.str()));
  if (c.name.empty() || c.name == "unnamed") {
    c.name = std::filesystem::path(path).stem().string();
  }
  return c;
}

std::vector<std::string> ListCorpus(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".case") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace audit
}  // namespace cedr
