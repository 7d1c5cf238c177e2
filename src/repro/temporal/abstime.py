"""Absolute time — the ``TEMPORAL EXTENT`` carrier (``abstime``).

Gaea timestamps objects with an absolute time (paper §2.1.1: ``timestamp =
abstime``).  We model absolute time as integer *days since epoch*
(1970-01-01), with a simple proleptic-Gregorian calendar conversion so
examples can speak in ``YYYY-MM-DD`` like the paper's "January 1986 for
Africa" task.  Day granularity matches the satellite-scene workloads the
paper targets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from ..errors import TemporalError, ValueRepresentationError

__all__ = ["AbsTime"]

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _days_in_month(year: int, month: int) -> int:
    if month == 2 and _is_leap(year):
        return 29
    return _DAYS_IN_MONTH[month - 1]


def _ymd_to_days(year: int, month: int, day: int) -> int:
    """Days since 1970-01-01 for a proleptic-Gregorian date."""
    if not 1 <= month <= 12:
        raise TemporalError(f"month {month} out of range")
    if not 1 <= day <= _days_in_month(year, month):
        raise TemporalError(f"day {day} out of range for {year}-{month:02d}")
    # Count days from year 1 using the standard civil-from-days algorithm.
    y = year - (1 if month <= 2 else 0)
    era = (y if y >= 0 else y - 399) // 400
    yoe = y - era * 400
    mp = (month + 9) % 12
    doy = (153 * mp + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def _days_to_ymd(days: int) -> tuple[int, int, int]:
    """Inverse of :func:`_ymd_to_days` (civil-from-days)."""
    z = days + 719468
    era = (z if z >= 0 else z - 146096) // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    y = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + 3 if mp < 10 else mp - 9
    return (y + (1 if month <= 2 else 0), month, day)


@dataclass(frozen=True, order=True, slots=True)
class AbsTime:
    """Absolute time at day granularity (days since 1970-01-01).

    Value-identified, immutable and totally ordered; supports day
    arithmetic through :meth:`plus_days` and :meth:`days_between`.
    """

    days: int

    def __reduce__(self) -> tuple:
        # Positional: loadable on 3.10 (frozen + slots cannot unpickle).
        return AbsTime, (self.days,)

    def __setstate__(self, state: dict) -> None:  # pickled before slots
        object.__setattr__(self, "days", state["days"])

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_ymd(year: int, month: int, day: int) -> "AbsTime":
        """Build from a calendar date."""
        return AbsTime(_ymd_to_days(year, month, day))

    @staticmethod
    def parse(text: str) -> "AbsTime":
        """Parse the external representation ``YYYY-MM-DD``."""
        match = _DATE_RE.match(text.strip())
        if match is None:
            raise ValueRepresentationError(f"bad abstime literal {text!r}")
        try:
            return AbsTime.from_ymd(*(int(g) for g in match.groups()))
        except TemporalError as exc:
            raise ValueRepresentationError(str(exc)) from exc

    @staticmethod
    def validate(value: Any) -> "AbsTime":
        """Validator used by the ``abstime`` primitive class."""
        if isinstance(value, AbsTime):
            return value
        if isinstance(value, str):
            return AbsTime.parse(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return AbsTime(value)
        raise ValueRepresentationError(
            f"abstime: cannot build from {type(value).__name__}"
        )

    # -- calendar views -------------------------------------------------------

    def to_ymd(self) -> tuple[int, int, int]:
        """Calendar date ``(year, month, day)``."""
        return _days_to_ymd(self.days)

    @property
    def year(self) -> int:
        """Calendar year."""
        return self.to_ymd()[0]

    @property
    def month(self) -> int:
        """Calendar month (1-12)."""
        return self.to_ymd()[1]

    @property
    def day(self) -> int:
        """Calendar day of month."""
        return self.to_ymd()[2]

    def __str__(self) -> str:
        year, month, day = self.to_ymd()
        return f"{year:04d}-{month:02d}-{day:02d}"

    # -- arithmetic -----------------------------------------------------------

    def plus_days(self, delta: int) -> "AbsTime":
        """This time shifted by *delta* days."""
        return AbsTime(self.days + delta)

    def days_between(self, other: "AbsTime") -> int:
        """Signed day count ``other - self``."""
        return other.days - self.days
