//! Fixture crate `net` (in the clock-charge scope): exercises transitive
//! charging, the forwarded-but-never-charged class, trait methods, impl vs
//! free fn shadowing, macro-heavy bodies, mod nesting, and a lock-order
//! cycle. Never compiled — only fed to the remem-audit extractor.

pub struct Clock;

// charged through a helper: the pass must NOT flag `send`
pub fn send(clock: &mut Clock) {
    stage(clock);
}

fn stage(clock: &mut Clock) {
    clock.charge_net(8);
}

// forwarded but never charged: `relay` forwards, so only following the
// chain shows it free (reported with the free path); `hop` is the dead end,
// reported at its own `fn` line
pub fn relay(clock: &mut Clock) {
    hop(clock);
}

fn hop(clock: &mut Clock) {
    let _ = clock;
}

// waived dead end: must produce no violation and no unused-pragma report
// audit: allow(clock-charge, fixture: demonstrates a waived dead end)
pub fn probe(clock: &mut Clock) {
    let _ = clock;
}

// trait signature (no body → skipped) + impl resolved via typed receiver
pub trait Device {
    fn write(&self, clock: &mut Clock);
}

pub struct Nic;

impl Device for Nic {
    fn write(&self, clock: &mut Clock) {
        clock.charge_write(64);
    }
}

pub fn xmit(clock: &mut Clock, nic: &Nic) {
    nic.write(clock);
}

// impl method vs free fn sharing a name: both callable from `drain`
pub fn flush() {}

impl Nic {
    pub fn flush(&self) {
        inner::deep::deep_helper();
    }
}

pub fn drain(nic: &Nic) {
    nic.flush();
    flush();
}

pub mod inner {
    pub mod deep {
        pub fn deep_helper() {}
    }
}

// macro-heavy body: no bogus call edges may come out of this
pub fn noisy() {
    let v = vec![1, 2, 3];
    let s = format!("{} items", v.len());
    println!("{s}");
}

// opposite nesting orders → a → b and b → a → lock-order cycle
pub struct Hub {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Hub {
    pub fn ab(&self) -> u32 {
        let g = self.a.lock();
        *g + *self.b.lock()
    }

    pub fn ba(&self) -> u32 {
        let g = self.b.lock();
        *g + *self.a.lock()
    }
}
