//! The plain FIFO counting semaphore, kept as the reference model that
//! `PrioritySemaphore` under `AdmissionPolicy::Fifo` must reproduce: one
//! queue, strict arrival order, a large request at the head blocking
//! smaller ones behind it, and a dropped pending acquire freeing its slot
//! and re-draining at once.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Waiter {
    n: usize,
    granted: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

struct Inner {
    permits: Cell<usize>,
    waiters: RefCell<VecDeque<Rc<Waiter>>>,
}

impl Inner {
    /// Grants queued waiters in FIFO order while the head fits.
    fn drain(&self) {
        loop {
            let head = self.waiters.borrow().front().cloned();
            let Some(w) = head.filter(|w| w.n <= self.permits.get()) else {
                break;
            };
            self.waiters.borrow_mut().pop_front();
            self.permits.set(self.permits.get() - w.n);
            w.granted.set(true);
            let waker = w.waker.borrow_mut().take();
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }

    fn release(&self, n: usize) {
        self.permits.set(self.permits.get() + n);
        self.drain();
    }
}

#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<Inner>,
}

impl Semaphore {
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: Rc::new(Inner {
                permits: Cell::new(permits),
                waiters: RefCell::new(VecDeque::new()),
            }),
        }
    }

    pub fn available(&self) -> usize {
        self.inner.permits.get()
    }

    /// Acquires `n` permits, waiting FIFO behind earlier requests. The
    /// returned guard releases the permits when dropped.
    pub fn acquire(&self, n: usize) -> Acquire {
        Acquire {
            sem: self.clone(),
            n,
            waiter: None,
        }
    }
}

pub struct Acquire {
    sem: Semaphore,
    n: usize,
    waiter: Option<Rc<Waiter>>,
}

impl Future for Acquire {
    type Output = Permit;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        let this = &mut *self;
        let inner = &this.sem.inner;
        match &this.waiter {
            Some(w) if w.granted.get() => this.waiter = None,
            Some(w) => {
                *w.waker.borrow_mut() = Some(cx.waker().clone());
                return Poll::Pending;
            }
            None if inner.waiters.borrow().is_empty() && inner.permits.get() >= this.n => {
                inner.permits.set(inner.permits.get() - this.n);
            }
            None => {
                let w = Rc::new(Waiter {
                    n: this.n,
                    granted: Cell::new(false),
                    waker: RefCell::new(Some(cx.waker().clone())),
                });
                inner.waiters.borrow_mut().push_back(Rc::clone(&w));
                this.waiter = Some(w);
                return Poll::Pending;
            }
        }
        Poll::Ready(Permit {
            sem: this.sem.clone(),
            n: this.n,
        })
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        let Some(w) = self.waiter.take() else { return };
        let inner = &self.sem.inner;
        if w.granted.get() {
            // Granted but never observed: hand the permits back.
            inner.release(self.n);
        } else {
            inner.waiters.borrow_mut().retain(|q| !Rc::ptr_eq(q, &w));
            inner.drain();
        }
    }
}

/// Permits held on a [`Semaphore`]; released on drop.
pub struct Permit {
    sem: Semaphore,
    n: usize,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.sem.inner.release(self.n);
    }
}
