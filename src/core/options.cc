#include "core/options.hh"

namespace graphabcd {

const char *
to_string(Schedule schedule)
{
    switch (schedule) {
      case Schedule::Cyclic:
        return "cyclic";
      case Schedule::Priority:
        return "priority";
      case Schedule::Random:
        return "random";
    }
    return "?";
}

std::optional<Schedule>
parseSchedule(std::string_view s)
{
    for (Schedule schedule :
         {Schedule::Cyclic, Schedule::Priority, Schedule::Random}) {
        if (s == to_string(schedule))
            return schedule;
    }
    return std::nullopt;
}

const char *
to_string(ExecMode mode)
{
    switch (mode) {
      case ExecMode::Async:
        return "async";
      case ExecMode::Barrier:
        return "barrier";
      case ExecMode::Bsp:
        return "bsp";
    }
    return "?";
}

} // namespace graphabcd
