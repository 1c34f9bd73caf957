/**
 * @file
 * Text names of enumerators, written once per enum.
 *
 * An enum whose enumerators appear as text (JSON, traces, cell ids,
 * counterexamples, flag values) declares one table beside it -- a row
 * per enumerator, in declaration order, holding the enumerator and its
 * name, plus any further columns -- and an enumNames() overload that
 * returns it:
 *
 *   inline constexpr EnumName<SmType> kSmTypeNames[] = {
 *       {SmType::Probe, "probe"}, ...};
 *   constexpr const auto &enumNames(SmType) { return kSmTypeNames; }
 *
 * toString() and fromString() are the only conversions between such an
 * enum and text; nameList() lists the names for --help and errors.
 */

#ifndef SPINNOC_COMMON_ENUMNAMES_HH
#define SPINNOC_COMMON_ENUMNAMES_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "common/Logging.hh"

namespace spin
{

/** One row of a name table. The name is a string literal, so it
 *  outlives any event that stores it. */
template <class E>
struct EnumName
{
    E value;
    const char *name;
};

/** An enum with a name table. */
template <class E>
concept NamedEnum = requires(E e) { enumNames(e); };

namespace detail
{

/** True when @p V is a declared enumerator: GCC and Clang spell one as
 *  "ns::E::Name" in __PRETTY_FUNCTION__, any other value as "(ns::E)4". */
template <auto V>
constexpr bool
isEnumerator()
{
    const std::string_view f = __PRETTY_FUNCTION__;
    const std::size_t eq = f.rfind("= ");
    return eq != std::string_view::npos && f[eq + 2] != '(';
}

/** Row i holds enumerator i, and value N (one past the last row) is no
 *  enumerator. */
template <class E, class Row, std::size_t N>
constexpr bool
listsEveryEnumerator(const Row (&rows)[N])
{
    for (std::size_t i = 0; i < N; ++i) {
        if (rows[i].value != static_cast<E>(i))
            return false;
    }
    return !isEnumerator<static_cast<E>(N)>();
}

} // namespace detail

/** @p E's name table. An enumerator without its row fails to compile
 *  here, as a switch without its case warns. */
template <NamedEnum E>
constexpr const auto &
enumTable()
{
    constexpr const auto &rows = enumNames(E{});
    static_assert(detail::listsEveryEnumerator<E>(rows),
                  "a name table lists every enumerator once, in "
                  "declaration order");
    return rows;
}

/** @p e's row of its table. */
template <NamedEnum E>
const auto &
enumRow(E e)
{
    const auto &rows = enumTable<E>();
    const auto i = static_cast<std::size_t>(e);
    SPIN_ASSERT(i < std::size(rows), "no enumerator has value ", i);
    return rows[i];
}

/** @p e's name, a string literal. */
template <NamedEnum E>
const char *
toString(E e)
{
    return enumRow(e).name;
}

/** Set @p out to the enumerator named exactly @p text; false, leaving
 *  @p out alone, when no row has that name. */
template <NamedEnum E>
bool
fromString(std::string_view text, E &out)
{
    for (const auto &row : enumTable<E>()) {
        if (text == row.name) {
            out = row.value;
            return true;
        }
    }
    return false;
}

/** Every name of @p E in declaration order, joined by " | ". */
template <NamedEnum E>
std::string
nameList()
{
    std::string out;
    for (const auto &row : enumTable<E>()) {
        if (!out.empty())
            out += " | ";
        out += row.name;
    }
    return out;
}

} // namespace spin

#endif // SPINNOC_COMMON_ENUMNAMES_HH
