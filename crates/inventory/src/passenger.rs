//! Passenger records.
//!
//! §IV-B of the paper shows that passenger details are the richest signal
//! for Seat Spinning detection: bots used "entirely random entries", fixed
//! names with "systematically rotated" birthdates, or name-surname overlaps,
//! while manual attackers permuted "the same fixed set of passenger names"
//! with occasional misspellings. The detection heuristics live in
//! `fg-detection`; this module only defines the data they inspect.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A calendar date (validated, proleptic-Gregorian-lite: leap years handled,
/// no pre-1900 dates needed for birthdates).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    year: u16,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date, validating month and day ranges.
    pub fn new(year: u16, month: u8, day: u8) -> Option<Self> {
        if !(1..=12).contains(&month) {
            return None;
        }
        if day == 0 || day > Self::days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    fn days_in_month(year: u16, month: u8) -> u8 {
        match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
                {
                    29
                } else {
                    28
                }
            }
            _ => 0,
        }
    }

    /// The date `days` days later (approximate month arithmetic: walks day
    /// by day, adequate for birthdate-rotation modelling).
    pub fn plus_days(mut self, days: u32) -> Date {
        for _ in 0..days {
            if self.day < Self::days_in_month(self.year, self.month) {
                self.day += 1;
            } else if self.month < 12 {
                self.month += 1;
                self.day = 1;
            } else {
                self.year += 1;
                self.month = 1;
                self.day = 1;
            }
        }
        self
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A passenger record as supplied at hold time.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Passenger {
    /// Given name, upper-cased at construction (PNR convention).
    pub first_name: String,
    /// Surname, upper-cased at construction.
    pub surname: String,
    /// Date of birth, if collected by the airline.
    pub birthdate: Option<Date>,
    /// Contact e-mail, if collected.
    pub email: Option<String>,
}

impl Passenger {
    /// Creates a passenger with just a name (names are upper-cased, matching
    /// airline PNR convention and making comparisons case-insensitive).
    pub fn simple(first_name: &str, surname: &str) -> Self {
        Passenger {
            first_name: first_name.to_uppercase(),
            surname: surname.to_uppercase(),
            birthdate: None,
            email: None,
        }
    }

    /// Creates a passenger with full details.
    pub fn full(first_name: &str, surname: &str, birthdate: Date, email: &str) -> Self {
        Passenger {
            first_name: first_name.to_uppercase(),
            surname: surname.to_uppercase(),
            birthdate: Some(birthdate),
            email: Some(email.to_lowercase()),
        }
    }

    /// The `"FIRST SURNAME"` key used by repetition heuristics.
    pub fn name_key(&self) -> String {
        format!("{} {}", self.first_name, self.surname)
    }
}

impl fmt::Display for Passenger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.surname, self.first_name)?;
        if let Some(d) = self.birthdate {
            write!(f, " ({d})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_validation() {
        assert!(Date::new(1990, 2, 29).is_none());
        assert!(Date::new(1992, 2, 29).is_some()); // leap year
        assert!(Date::new(2000, 2, 29).is_some()); // 400-rule leap year
        assert!(Date::new(1900, 2, 29).is_none()); // 100-rule non-leap
        assert!(Date::new(1990, 13, 1).is_none());
        assert!(Date::new(1990, 0, 1).is_none());
        assert!(Date::new(1990, 4, 31).is_none());
        assert!(Date::new(1990, 4, 30).is_some());
    }

    #[test]
    fn plus_days_rolls_over() {
        let d = Date::new(1999, 12, 31).unwrap();
        assert_eq!(d.plus_days(1), Date::new(2000, 1, 1).unwrap());
        let d = Date::new(1992, 2, 28).unwrap();
        assert_eq!(d.plus_days(1), Date::new(1992, 2, 29).unwrap());
        assert_eq!(d.plus_days(2), Date::new(1992, 3, 1).unwrap());
    }

    #[test]
    fn names_are_uppercased() {
        let p = Passenger::simple("Ada", "Lovelace");
        assert_eq!(p.first_name, "ADA");
        assert_eq!(p.surname, "LOVELACE");
        assert_eq!(p.name_key(), "ADA LOVELACE");
    }

    #[test]
    fn full_passenger_lowercases_email() {
        let p = Passenger::full(
            "Grace",
            "Hopper",
            Date::new(1906, 12, 9).unwrap(),
            "Grace@Navy.MIL",
        );
        assert_eq!(p.email.as_deref(), Some("grace@navy.mil"));
        assert_eq!(p.birthdate.unwrap().to_string(), "1906-12-09");
    }

    #[test]
    fn display_is_pnr_style() {
        let p = Passenger::simple("Ada", "Lovelace");
        assert_eq!(p.to_string(), "LOVELACE/ADA");
    }
}
