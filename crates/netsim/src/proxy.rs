//! Residential proxy pools.
//!
//! Commercial residential proxy services rent out exit IPs harvested from
//! consumer devices (paper refs \[5\], \[23\]). For the attacker they provide
//! (1) country targeting — §IV-C's pumpers matched exit country to the SMS
//! destination country — and (2) rotation. For the defender they are painful
//! because blocking a residential /24 risks blocking real customers.
//!
//! [`ProxyPool`] models a finite per-country inventory of exits with
//! per-request pricing, feeding the §V economics model.

use crate::geo::GeoDatabase;
use crate::ip::{IpAddress, IpClass};
use fg_core::ids::CountryCode;
use fg_core::money::Money;
use rand::Rng;
use std::collections::HashMap;

/// A finite pool of proxy exits, organized per country.
///
/// # Example
///
/// ```
/// use fg_netsim::{GeoDatabase, proxy::ProxyPool};
/// use fg_core::ids::CountryCode;
/// use fg_core::money::Money;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let geo = GeoDatabase::default_world();
/// let mut pool = ProxyPool::residential(&geo, 32);
/// let mut rng = StdRng::seed_from_u64(0);
/// let exit = pool.rent(CountryCode::new("NG"), &mut rng).unwrap();
/// assert_eq!(geo.country_of(exit), Some(CountryCode::new("NG")));
/// assert_eq!(pool.total_spend(), Money::from_cents(60));
/// ```
#[derive(Clone, Debug)]
pub struct ProxyPool {
    exits: HashMap<CountryCode, Vec<IpAddress>>,
    price_per_lease: Money,
    total_spend: Money,
}

impl ProxyPool {
    /// Builds a residential pool with `exits_per_country` exits in every
    /// country of `geo`, at the default residential price point
    /// ($0.60/lease — in the ballpark of per-IP pricing of commercial
    /// residential providers).
    pub fn residential(geo: &GeoDatabase, exits_per_country: usize) -> Self {
        Self::with_class(
            geo,
            exits_per_country,
            IpClass::Residential,
            Money::from_cents(60),
        )
    }

    /// Builds a datacenter pool: effectively unlimited cheap exits
    /// ($0.02/lease) that the defender can detect by class.
    pub fn datacenter(geo: &GeoDatabase, exits_per_country: usize) -> Self {
        Self::with_class(
            geo,
            exits_per_country,
            IpClass::Datacenter,
            Money::from_cents(2),
        )
    }

    /// Builds a pool of `class` exits with a custom price.
    pub fn with_class(
        geo: &GeoDatabase,
        exits_per_country: usize,
        class: IpClass,
        price_per_lease: Money,
    ) -> Self {
        // Deterministic exit inventory, strided across each block: real
        // residential exits are scattered consumer devices, so consecutive
        // addresses (which would all share one /24 and die to a single
        // subnet block) would misrepresent the threat model entirely.
        let mut exits = HashMap::new();
        for &country in geo.countries() {
            let mut ips = Vec::with_capacity(exits_per_country);
            for range in geo.ranges(country, class) {
                let stride = (range.len() / exits_per_country as u32).max(1);
                for i in 0..exits_per_country as u32 {
                    if ips.len() >= exits_per_country {
                        break;
                    }
                    let off = (i * stride) % range.len();
                    ips.push(range.nth(off).expect("offset bounded by range length"));
                }
            }
            exits.insert(country, ips);
        }
        ProxyPool {
            exits,
            price_per_lease,
            total_spend: Money::ZERO,
        }
    }

    /// Rents a random exit in `country` and returns its address. Returns
    /// `None` if the pool has no inventory there.
    pub fn rent<R: Rng + ?Sized>(
        &mut self,
        country: CountryCode,
        rng: &mut R,
    ) -> Option<IpAddress> {
        let ips = self.exits.get(&country)?;
        if ips.is_empty() {
            return None;
        }
        let ip = ips[rng.gen_range(0..ips.len())];
        self.total_spend += self.price_per_lease;
        Some(ip)
    }

    /// Rents an exit in any country (uniform over countries with inventory).
    pub fn rent_any<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<IpAddress> {
        let countries: Vec<CountryCode> = self
            .exits
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(c, _)| *c)
            .collect();
        if countries.is_empty() {
            return None;
        }
        // HashMap iteration order is non-deterministic; sort for determinism.
        let mut countries = countries;
        countries.sort_unstable();
        let country = countries[rng.gen_range(0..countries.len())];
        self.rent(country, rng)
    }

    /// Total money spent on leases so far.
    pub fn total_spend(&self) -> Money {
        self.total_spend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (GeoDatabase, ProxyPool, StdRng) {
        let geo = GeoDatabase::default_world();
        let pool = ProxyPool::residential(&geo, 16);
        (geo, pool, StdRng::seed_from_u64(3))
    }

    #[test]
    fn rented_exit_matches_country_and_class() {
        let (geo, mut pool, mut rng) = setup();
        for code in ["UZ", "IR", "TH"] {
            let c = CountryCode::new(code);
            let exit = pool.rent(c, &mut rng).unwrap();
            assert_eq!(geo.country_of(exit), Some(c));
            assert_eq!(geo.class_of(exit), Some(IpClass::Residential));
        }
    }

    #[test]
    fn spend_accumulates_per_lease() {
        let (_, mut pool, mut rng) = setup();
        let c = CountryCode::new("GB");
        for _ in 0..10 {
            pool.rent(c, &mut rng).unwrap();
        }
        assert_eq!(pool.total_spend(), Money::from_cents(600));
    }

    #[test]
    fn unknown_country_has_no_inventory() {
        let (_, mut pool, mut rng) = setup();
        assert!(pool.rent(CountryCode::new("ZZ"), &mut rng).is_none());
    }

    #[test]
    fn rent_any_is_deterministic_per_seed() {
        let geo = GeoDatabase::default_world();
        let lease_with_seed = |seed| {
            let mut pool = ProxyPool::residential(&geo, 8);
            let mut rng = StdRng::seed_from_u64(seed);
            pool.rent_any(&mut rng).unwrap()
        };
        assert_eq!(lease_with_seed(7), lease_with_seed(7));
    }

    #[test]
    fn datacenter_pool_is_cheaper_but_flagged() {
        let geo = GeoDatabase::default_world();
        let mut dc = ProxyPool::datacenter(&geo, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let exit = dc.rent(CountryCode::new("US"), &mut rng).unwrap();
        assert_eq!(geo.class_of(exit), Some(IpClass::Datacenter));
        assert!(dc.total_spend() < Money::from_cents(60));
    }

    #[test]
    fn rotation_draws_many_distinct_ips() {
        let (_, mut pool, mut rng) = setup();
        let c = CountryCode::new("JO");
        let distinct: std::collections::HashSet<IpAddress> =
            (0..200).filter_map(|_| pool.rent(c, &mut rng)).collect();
        assert!(
            distinct.len() >= 10,
            "got {} distinct exits",
            distinct.len()
        );
    }
}
