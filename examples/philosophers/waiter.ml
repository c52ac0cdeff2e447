lock f1, f2, waiter;
shared meals;
thread table {
  fork p1;
  fork p2;
  join p1;
  join p2;
  print meals;
}
thread p1 {
  lock waiter;
  lock f1;
  lock f2;
  meals = meals + 1;
  unlock f2;
  unlock f1;
  unlock waiter;
}
thread p2 {
  lock waiter;
  lock f2;
  lock f1;
  meals = meals + 1;
  unlock f1;
  unlock f2;
  unlock waiter;
}
