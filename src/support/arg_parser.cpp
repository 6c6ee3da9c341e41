#include "support/arg_parser.hpp"

#include <sstream>

#include "support/common.hpp"
#include "support/string_util.hpp"

namespace aal {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         std::string fallback) {
  AAL_CHECK(find(name) == nullptr, "duplicate flag --" << name);
  flags_.push_back(Flag{name, help, std::move(fallback), false, false, false});
}

void ArgParser::add_int_flag(const std::string& name, const std::string& help,
                             std::int64_t fallback) {
  AAL_CHECK(find(name) == nullptr, "duplicate flag --" << name);
  flags_.push_back(
      Flag{name, help, std::to_string(fallback), false, true, false});
}

void ArgParser::add_switch(const std::string& name, const std::string& help) {
  AAL_CHECK(find(name) == nullptr, "duplicate flag --" << name);
  flags_.push_back(Flag{name, help, "0", true, false, false});
}

void ArgParser::add_positional(const std::string& name,
                               const std::string& help, bool required) {
  positionals_.push_back(Positional{name, help, required, std::nullopt});
}

ArgParser::Flag* ArgParser::find(const std::string& name) {
  for (Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const ArgParser::Flag* ArgParser::find(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void ArgParser::parse(int argc, const char* const* argv) {
  std::size_t next_positional = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return;
    }
    if (starts_with(arg, "--")) {
      std::string name = arg.substr(2);
      std::optional<std::string> inline_value;
      const std::size_t eq = name.find('=');
      if (eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        name.erase(eq);
      }
      Flag* flag = find(name);
      if (flag == nullptr) {
        std::vector<std::string> names;
        for (const Flag& f : flags_) names.push_back(f.name);
        std::string message = "unknown flag --" + name;
        if (const auto closest = closest_match(name, names)) {
          message += " (did you mean --" + *closest + "?)";
        }
        throw InvalidArgument(message + "; see --help");
      }
      if (flag->is_switch) {
        AAL_CHECK(!inline_value.has_value(),
                  "switch --" << name << " takes no value");
        flag->value.assign(1, '1');
      } else if (inline_value) {
        flag->value = *inline_value;
      } else {
        AAL_CHECK(i + 1 < argc, "flag --" << name << " expects a value");
        flag->value = argv[++i];
      }
      if (flag->is_int) {
        // Validate eagerly so errors point at the offending flag.
        try {
          (void)std::stoll(flag->value);
        } catch (const std::exception&) {
          throw InvalidArgument("flag --" + name + " expects an integer, got '" +
                                flag->value + "'");
        }
      }
      flag->set = true;
    } else {
      AAL_CHECK(next_positional < positionals_.size(),
                "unexpected positional argument '" << arg << "'");
      positionals_[next_positional++].value = arg;
    }
  }
  for (const Positional& p : positionals_) {
    AAL_CHECK(!p.required || p.value.has_value(),
              "missing required argument <" << p.name << ">");
  }
}

std::string ArgParser::get(const std::string& name) const {
  const Flag* flag = find(name);
  AAL_CHECK(flag != nullptr, "unknown flag --" << name);
  return flag->value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const Flag* flag = find(name);
  AAL_CHECK(flag != nullptr && flag->is_int, "unknown int flag --" << name);
  return std::stoll(flag->value);
}

bool ArgParser::get_switch(const std::string& name) const {
  const Flag* flag = find(name);
  AAL_CHECK(flag != nullptr && flag->is_switch,
            "unknown switch --" << name);
  return flag->value == "1";
}

std::optional<std::string> ArgParser::get_positional(
    const std::string& name) const {
  for (const Positional& p : positionals_) {
    if (p.name == name) return p.value;
  }
  throw InvalidArgument("unknown positional <" + name + ">");
}

std::string ArgParser::usage(const std::string& program_name) const {
  std::ostringstream os;
  os << description_ << "\n\nusage: " << program_name;
  for (const Positional& p : positionals_) {
    os << (p.required ? " <" : " [") << p.name << (p.required ? ">" : "]");
  }
  os << " [flags]\n";
  if (!positionals_.empty()) {
    os << "\narguments:\n";
    for (const Positional& p : positionals_) {
      os << "  " << p.name << "  " << p.help << '\n';
    }
  }
  if (!flags_.empty()) {
    os << "\nflags:\n";
    for (const Flag& f : flags_) {
      os << "  --" << f.name;
      if (!f.is_switch) os << " <value>";
      os << "  " << f.help;
      if (!f.is_switch) os << " (default: " << f.value << ')';
      os << '\n';
    }
  }
  return os.str();
}

}  // namespace aal
