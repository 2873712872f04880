#include "effects.hh"

#include "util/logging.hh"
#include "util/strings.hh"

namespace vmargin
{

namespace
{

/** Short name of each effect, indexed by its enum value. */
constexpr std::string_view kEffectNames[] = {"NO", "SDC", "CE",
                                             "UE", "AC",  "SC"};

} // namespace

std::string
effectName(Effect effect)
{
    const auto index = static_cast<size_t>(effect);
    if (index >= std::size(kEffectNames))
        util::panicf("effectName: invalid effect ",
                     static_cast<int>(effect));
    return std::string(kEffectNames[index]);
}

std::string
effectDescription(Effect effect)
{
    switch (effect) {
      case Effect::NO:
        return "The benchmark was successfully completed without any "
               "indications of failure.";
      case Effect::SDC:
        return "The benchmark was successfully completed, but a "
               "mismatch between the program output and the correct "
               "output was observed.";
      case Effect::CE:
        return "Errors were detected and corrected by the hardware "
               "(provided by Linux EDAC driver).";
      case Effect::UE:
        return "Errors were detected, but not corrected by the "
               "hardware (provided by Linux EDAC driver).";
      case Effect::AC:
        return "The application process was not terminated normally "
               "(the exit value of the process was different than "
               "zero).";
      case Effect::SC:
        return "The system was unresponsive; the machine is not "
               "responding or the timeout limit was reached.";
    }
    util::panicf("effectDescription: invalid effect ",
                 static_cast<int>(effect));
}

Effect
effectFromName(std::string_view name)
{
    for (Effect e : kAllEffects)
        if (kEffectNames[static_cast<size_t>(e)] == name)
            return e;
    util::panicf("effectFromName: unknown effect '", name, "'");
}

namespace
{

uint8_t
bitOf(Effect effect)
{
    if (effect == Effect::NO)
        return 0;
    return static_cast<uint8_t>(1u
                                << (static_cast<unsigned>(effect) - 1));
}

} // namespace

void
EffectSet::add(Effect effect)
{
    bits_ |= bitOf(effect);
}

bool
EffectSet::has(Effect effect) const
{
    if (effect == Effect::NO)
        return normal();
    return (bits_ & bitOf(effect)) != 0;
}

int
EffectSet::count() const
{
    int n = 0;
    for (uint8_t b = bits_; b; b >>= 1)
        n += b & 1;
    return n;
}

std::string
EffectSet::toString() const
{
    std::string out;
    appendTo(out);
    return out;
}

void
EffectSet::appendTo(std::string &out) const
{
    if (normal()) {
        out += kEffectNames[static_cast<size_t>(Effect::NO)];
        return;
    }
    bool first = true;
    for (Effect e : {Effect::SDC, Effect::CE, Effect::UE, Effect::AC,
                     Effect::SC}) {
        if (!has(e))
            continue;
        if (!first)
            out += ',';
        out += kEffectNames[static_cast<size_t>(e)];
        first = false;
    }
}

EffectSet
EffectSet::fromString(std::string_view text)
{
    EffectSet set;
    if (text.empty() || text == "NO")
        return set;
    while (true) {
        const size_t comma = text.find(',');
        set.add(effectFromName(util::trimView(text.substr(0, comma))));
        if (comma == std::string_view::npos)
            return set;
        text.remove_prefix(comma + 1);
    }
}

EffectSet
classifyRun(const sim::RunResult &run)
{
    EffectSet set;
    if (run.systemCrashed)
        set.add(Effect::SC);
    if (run.applicationCrashed)
        set.add(Effect::AC);
    if (run.completed && !run.outputMatches)
        set.add(Effect::SDC);
    if (run.correctedErrors > 0)
        set.add(Effect::CE);
    if (run.uncorrectedErrors > 0)
        set.add(Effect::UE);
    return set;
}

} // namespace vmargin
