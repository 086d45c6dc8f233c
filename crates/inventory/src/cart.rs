//! Generic e-commerce carts — OWASP's canonical Denial of Inventory.
//!
//! The paper's §II-A opens with OWASP's formulation: "removing e-commerce
//! items from circulation by adding large quantities to a cart or basket
//! without completing the purchase". [`CartStore`] is the minimal store
//! implementing that feature: products with finite stock, carts that hold
//! units under a TTL, and checkout. It shares its conservation discipline
//! with the airline ledger.

use crate::error::InventoryError;
use fg_core::event::EventQueue;
use fg_core::ids::ClientId;
use fg_core::money::Money;
use fg_core::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifies a product in a [`CartStore`].
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ProductId(pub u64);

impl fmt::Display for ProductId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prod{}", self.0)
    }
}

/// A product with finite stock.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Product {
    /// Identifier.
    pub id: ProductId,
    /// Display name.
    pub name: String,
    /// Unit price.
    pub price: Money,
    /// Total stock at creation.
    pub stock: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CartLine {
    client: ClientId,
    product: ProductId,
    quantity: u32,
    expires_at: SimTime,
    live: bool,
}

/// A store with per-client carts holding finite stock under a TTL.
///
/// # Example
///
/// ```
/// use fg_inventory::cart::{CartStore, Product, ProductId};
/// use fg_core::ids::ClientId;
/// use fg_core::money::Money;
/// use fg_core::time::{SimDuration, SimTime};
///
/// let mut store = CartStore::new(SimDuration::from_mins(20));
/// store.add_product(Product {
///     id: ProductId(1),
///     name: "GPU".into(),
///     price: Money::from_units(999),
///     stock: 10,
/// });
/// store.add_to_cart(ClientId(1), ProductId(1), 4, SimTime::ZERO)?;
/// assert_eq!(store.available(ProductId(1)), Some(6));
/// // Abandoned carts release stock after the TTL.
/// store.expire_due(SimTime::from_mins(21));
/// assert_eq!(store.available(ProductId(1)), Some(10));
/// # Ok::<(), fg_inventory::InventoryError>(())
/// ```
#[derive(Debug)]
pub struct CartStore {
    products: HashMap<ProductId, Product>,
    available: HashMap<ProductId, u32>,
    sold: HashMap<ProductId, u32>,
    lines: Vec<CartLine>,
    expiry: EventQueue<usize>,
    ttl: SimDuration,
}

impl CartStore {
    /// Creates a store whose cart lines lapse after `ttl`.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is not positive.
    pub fn new(ttl: SimDuration) -> Self {
        assert!(ttl.as_millis() > 0, "cart TTL must be positive");
        CartStore {
            products: HashMap::new(),
            available: HashMap::new(),
            sold: HashMap::new(),
            lines: Vec::new(),
            expiry: EventQueue::new(),
            ttl,
        }
    }

    /// Registers a product (replacing any prior definition and resetting its
    /// ledger).
    pub fn add_product(&mut self, product: Product) {
        self.available.insert(product.id, product.stock);
        self.sold.insert(product.id, 0);
        self.products.insert(product.id, product);
    }

    /// Units of `product` free to add to carts right now.
    pub fn available(&self, product: ProductId) -> Option<u32> {
        self.available.get(&product).copied()
    }

    /// Units of `product` sold so far.
    pub fn sold(&self, product: ProductId) -> Option<u32> {
        self.sold.get(&product).copied()
    }

    /// Units of `product` currently sitting in live carts.
    fn in_carts(&self, product: ProductId) -> u32 {
        self.lines
            .iter()
            .filter(|l| l.live && l.product == product)
            .map(|l| l.quantity)
            .sum()
    }

    /// Adds `quantity` units of `product` to `client`'s cart at `now`.
    ///
    /// # Errors
    ///
    /// * [`InventoryError::UnknownProduct`] — no such product.
    /// * [`InventoryError::InsufficientStock`] — not enough free units.
    pub fn add_to_cart(
        &mut self,
        client: ClientId,
        product: ProductId,
        quantity: u32,
        now: SimTime,
    ) -> Result<(), InventoryError> {
        self.expire_due(now);
        if !self.products.contains_key(&product) {
            return Err(InventoryError::UnknownProduct(product.0));
        }
        let avail = self
            .available
            .get_mut(&product)
            .expect("ledger exists per product");
        if *avail < quantity {
            return Err(InventoryError::InsufficientStock {
                product: product.0,
                requested: quantity,
                available: *avail,
            });
        }
        *avail -= quantity;
        let idx = self.lines.len();
        self.lines.push(CartLine {
            client,
            product,
            quantity,
            expires_at: now + self.ttl,
            live: true,
        });
        self.expiry.schedule(now + self.ttl, idx);
        Ok(())
    }

    /// Checks out every live line in `client`'s cart, converting holds into
    /// sales. Returns the total charged.
    pub fn checkout(&mut self, client: ClientId, now: SimTime) -> Money {
        self.expire_due(now);
        let mut total = Money::ZERO;
        for line in &mut self.lines {
            if line.live && line.client == client {
                line.live = false;
                *self
                    .sold
                    .get_mut(&line.product)
                    .expect("ledger exists per product") += line.quantity;
                let price = self.products[&line.product].price;
                total += price * u64::from(line.quantity);
            }
        }
        total
    }

    /// Releases every cart line whose TTL elapsed by `now`. Returns how many
    /// lines lapsed.
    pub fn expire_due(&mut self, now: SimTime) -> usize {
        let mut count = 0;
        while let Some((_, idx)) = self.expiry.pop_before(now) {
            let line = &mut self.lines[idx];
            if line.live && line.expires_at <= now {
                line.live = false;
                *self
                    .available
                    .get_mut(&line.product)
                    // fg-analyze: allow(panic-path): ledger invariant — every product gets a ledger at registration, before any line can reference it
                    .expect("ledger exists per product") += line.quantity;
                count += 1;
            }
        }
        count
    }

    /// Conservation check: for every product,
    /// `available + in_carts + sold == stock`.
    pub fn conservation_holds(&self) -> bool {
        self.products
            .values()
            .all(|p| self.available[&p.id] + self.in_carts(p.id) + self.sold[&p.id] == p.stock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn store(stock: u32) -> CartStore {
        let mut s = CartStore::new(SimDuration::from_mins(20));
        s.add_product(Product {
            id: ProductId(1),
            name: "Widget".into(),
            price: Money::from_units(50),
            stock,
        });
        s
    }

    #[test]
    fn add_and_checkout() {
        let mut s = store(10);
        s.add_to_cart(ClientId(1), ProductId(1), 3, SimTime::ZERO)
            .unwrap();
        assert_eq!(s.available(ProductId(1)), Some(7));
        assert_eq!(s.in_carts(ProductId(1)), 3);
        let charged = s.checkout(ClientId(1), SimTime::from_mins(5));
        assert_eq!(charged, Money::from_units(150));
        assert_eq!(s.sold(ProductId(1)), Some(3));
        assert!(s.conservation_holds());
    }

    #[test]
    fn abandoned_cart_releases_stock() {
        let mut s = store(10);
        s.add_to_cart(ClientId(2), ProductId(1), 10, SimTime::ZERO)
            .unwrap();
        assert_eq!(s.available(ProductId(1)), Some(0));
        assert_eq!(s.expire_due(SimTime::from_mins(21)), 1);
        assert_eq!(s.available(ProductId(1)), Some(10));
        // Checkout after expiry charges nothing.
        assert_eq!(s.checkout(ClientId(2), SimTime::from_mins(22)), Money::ZERO);
    }

    #[test]
    fn doi_loop_denies_stock_continuously() {
        // The DoI attack: re-add the full stock the moment the hold lapses.
        let mut s = store(100);
        let attacker = ClientId(666);
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            s.add_to_cart(attacker, ProductId(1), 100, now).unwrap();
            // A legitimate buyer finds nothing for the whole TTL window.
            assert_eq!(
                s.add_to_cart(
                    ClientId(1),
                    ProductId(1),
                    1,
                    now + SimDuration::from_mins(10)
                ),
                Err(InventoryError::InsufficientStock {
                    product: 1,
                    requested: 1,
                    available: 0
                })
            );
            now += SimDuration::from_mins(21);
            s.expire_due(now);
        }
        assert_eq!(s.sold(ProductId(1)), Some(0), "attacker never buys");
        assert!(s.conservation_holds());
    }

    #[test]
    fn unknown_product_rejected() {
        let mut s = store(10);
        assert_eq!(
            s.add_to_cart(ClientId(1), ProductId(9), 1, SimTime::ZERO),
            Err(InventoryError::UnknownProduct(9))
        );
        assert_eq!(s.available(ProductId(9)), None);
    }

    #[test]
    fn checkout_only_affects_own_cart() {
        let mut s = store(10);
        s.add_to_cart(ClientId(1), ProductId(1), 2, SimTime::ZERO)
            .unwrap();
        s.add_to_cart(ClientId(2), ProductId(1), 3, SimTime::ZERO)
            .unwrap();
        s.checkout(ClientId(1), SimTime::from_mins(1));
        assert_eq!(s.sold(ProductId(1)), Some(2));
        assert_eq!(s.in_carts(ProductId(1)), 3);
        assert!(s.conservation_holds());
    }

    proptest! {
        /// Stock conservation under arbitrary add/checkout/expire interleavings.
        #[test]
        fn prop_stock_conservation(ops in proptest::collection::vec((0u8..3, 1u32..5, 0u64..60), 1..60)) {
            let mut s = store(30);
            let mut now = SimTime::ZERO;
            for (op, q, dt) in ops {
                now += SimDuration::from_mins(dt as i64);
                match op {
                    0 => { let _ = s.add_to_cart(ClientId(u64::from(q % 3)), ProductId(1), q, now); }
                    1 => { s.checkout(ClientId(u64::from(q % 3)), now); }
                    _ => { s.expire_due(now); }
                }
                prop_assert!(s.conservation_holds());
            }
        }
    }
}
