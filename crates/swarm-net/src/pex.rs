//! Peer-exchange gossip helpers.
//!
//! Pure functions over a peer's (sorted) neighbor id list, so the PEX
//! decisions are deterministic given the peer's own RNG stream and
//! independent of hash order. The loopback host uses these through
//! [`crate::peer::PeerCore`].

use rand::seq::SliceRandom;
use rand::Rng;

/// How many neighbor addresses one PEX reply carries (mirrors the sim
/// engine's gossip fanout).
pub const PEX_SHARE: usize = 5;

/// Choose the neighbor to gossip with this interval: uniform over the
/// caller's sorted neighbor ids. `None` when there is nobody to ask.
pub fn pick_partner<R: Rng + ?Sized>(sorted_ids: &[usize], rng: &mut R) -> Option<usize> {
    if sorted_ids.is_empty() {
        return None;
    }
    Some(sorted_ids[rng.gen_range(0..sorted_ids.len())])
}

/// Build the address list for a PEX reply: up to [`PEX_SHARE`] of our
/// neighbors, excluding the requester itself, in shuffled order (so a
/// crowded neighborhood doesn't always gossip the same prefix).
pub fn share_list<R: Rng + ?Sized>(
    sorted_ids: &[usize],
    requester: usize,
    rng: &mut R,
) -> Vec<u64> {
    let mut pool: Vec<usize> = sorted_ids
        .iter()
        .copied()
        .filter(|&p| p != requester)
        .collect();
    pool.shuffle(rng);
    pool.truncate(PEX_SHARE);
    pool.into_iter().map(|p| p as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn pick_partner_is_none_only_when_lonely() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(pick_partner(&[], &mut rng), None);
        for _ in 0..50 {
            let got = pick_partner(&[3, 7, 9], &mut rng).unwrap();
            assert!([3, 7, 9].contains(&got));
        }
    }

    #[test]
    fn share_list_excludes_requester_and_caps_fanout() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ids: Vec<usize> = (1..20).collect();
        for requester in 1..20 {
            let got = share_list(&ids, requester, &mut rng);
            assert_eq!(got.len(), PEX_SHARE);
            assert!(!got.contains(&(requester as u64)));
        }
        // Small neighborhoods share everyone they know (minus requester).
        let mut got = share_list(&[2, 5], 5, &mut rng);
        got.sort_unstable();
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn share_list_is_a_pure_function_of_the_rng_stream() {
        let ids: Vec<usize> = (1..30).collect();
        let a = share_list(&ids, 4, &mut ChaCha8Rng::seed_from_u64(9));
        let b = share_list(&ids, 4, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
